"""S-expression text formats for formulas (.frm), ground terms (.gt),
designs (.dsn), cut-nets (.net), behaviours (.bhv), polarized sequents
(.seq) and translation environments (.tenv, read only).  parse ∘ print = id
for every format that has a printer.

`_GRAMMAR` is the grammar of formulas, ground terms and polarized formulas;
`syntax_from_text` reads text by it in one pass and `syntax_text` prints a
value by it to text.  They, like `read_sexpr` and `write_sexpr`, keep their
own stacks, so nesting costs no Python stack.  Every reader counts fields
with `_fields`, so a malformed form raises a `ParseError` naming its head.
"""
from __future__ import annotations

import os
import re
from itertools import accumulate, islice

from . import focusing as fo
from .behaviours import Behaviour, UniverseBounds, behaviour
from .designs import (
    DaimonLeaf, Design, NegNode, Pitchfork, PosNode, daimon, fid,
    format_address, natural, negative, parse_address, positive, star,
)
from .formulas import (
    Absurd, Atom, Conj, Disj, Exists, Forall, Formula, IConst, IVar, Impl,
)
from .interaction import DEFAULT_FUEL, CutNet, make_cutnet
from .sharing import fold
from . import terms as tm
from .translate import MisboundAtom, TranslationEnv


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        self.line, self.col = line, col
        super().__init__(message)


# ---------------------------------------------------------------------------
# reader / writer for raw s-expressions

#: a parenthesis or an atom (group 1), or a comment (group 1 empty)
_TOKEN = re.compile(r"([()]|[^\s();]+)|;[^\n]*")


def _error(text: str, message: str, k=None) -> ParseError:
    """An error at the k-th token of the text, or else at its end (at the
    comment that ends it, if one does)."""
    if k is not None:
        i = next(islice(_TOKEN.finditer(text), k, None)).start()
    elif (i := text.find(";", text.rfind("\n") + 1)) < 0:
        i = len(text)
    line_start = text.rfind("\n", 0, i) + 1
    return ParseError(message, text.count("\n", 0, i) + 1, i - line_start + 1)


def read_sexpr(text: str):
    """Parse one s-expression (atoms are strings, lists are lists)."""
    tokens = _TOKEN.findall(text)
    top: list = []
    form, stack = top, []
    for k, t in enumerate(tokens):
        if t == "(":
            stack.append(form)
            form.append(form := [])
        elif t == ")":
            if not stack:
                raise _error(text, "unexpected ')'", k)
            form = stack.pop()
        elif t:
            form.append(t)
        if top and not stack:
            for j in range(k + 1, len(tokens)):
                if tokens[j]:
                    raise _error(text, f"trailing input {tokens[j]!r}", j)
            return top[0]
    if stack:
        raise _error(text, "unclosed '('")
    raise _error(text, "unexpected end of input")


def write_sexpr(x) -> str:
    parts: list[str] = []
    stack = [enumerate((x,))]
    while stack:
        for i, item in stack[-1]:
            if i:
                parts.append(" ")
            if isinstance(item, list):
                parts.append("(")
                stack.append(enumerate(item))
                break
            parts.append(str(item))
        else:
            stack.pop()
            if stack:
                parts.append(")")
    return "".join(parts)


def _a(what: str) -> str:
    return ("an " if what[0] in "aeiou" else "a ") + what


def _head(x, what: str) -> str:
    """The head of the form x, where a `what` form is expected."""
    if isinstance(x, list) and x and isinstance(x[0], str):
        return x[0]
    raise ParseError(f"expected {_a(what)} form, got {write_sexpr(x)}")


def _fields(x, n: int, more=False, head=None) -> list:
    """The fields of the form x, which takes n of them (n or more if
    `more`); with `head`, x must be a (head …) form."""
    if head is not None and not (isinstance(x, list) and x and x[0] == head):
        raise ParseError(f"expected a ({head} ...) form")
    got = len(x) - 1
    if got != n and not (more and got > n):
        raise ParseError(f"({x[0]} …) takes {'at least ' * more}{n} "
                         f"field{'s' * (n != 1)}, got {got}")
    return x[1:]


def _atom(x, what: str):
    """The atom x read as a `what`, a leaf kind (a key of `_LEAVES`)."""
    if isinstance(x, str):
        try:
            return _LEAVES[what](x)
        except ValueError:
            pass
    raise ParseError(f"expected {_a(what)}, got {write_sexpr(x)}")


# ---------------------------------------------------------------------------
# formulas, ground terms and polarized formulas: one table, two walkers

#: head -> (class, field kinds), the fields in the class's field order.  A
#: kind is a leaf (a key of _LEAVES) or a sort (a key of _SORTS).  A last
#: kind *k takes the rest of the form, a tuple in the last field.  The term
#: rows are `terms.FIELDS`'s without the binder scopes (after `>`); a
#: polarized row reads an atom's name or a connective's parts, by the shape
#: `focusing.CONNECTIVES` gives it.
_GRAMMAR = {
    "atom": (Atom, "name *individual"),
    "absurd": (Absurd, ""),
    "and": (Conj, "formula formula"),
    "or": (Disj, "formula formula"),
    "impl": (Impl, "formula formula"),
    "forall": (Forall, "name formula"),
    "exists": (Exists, "name formula"),
    **{head: (cls, re.sub(">[^ ]*", "", tm.FIELDS[cls])) for head, cls in {
        "var": tm.Var, "const": tm.Const, "conj-i": tm.ConjI,
        "disj-i": tm.DisjI, "impl-i": tm.ImplI, "forall-i": tm.ForallI,
        "exists-i": tm.ExistsI, "exploder": tm.Exploder, "conj-e": tm.ConjE,
        "disj-e": tm.DisjE, "impl-e": tm.ImplE, "forall-e": tm.ForallE,
        "exists-e": tm.ExistsE, "ds": tm.DS, "op": tm.UserOp,
        "meta": tm.MetaVar}.items()},
    **{head: (cls, "name" if fo.CONNECTIVES[cls].shape == "atom"
              else "polarized " * len(cls.__match_args__)) for head, cls in {
        "atom+": fo.PosAtom, "atom-": fo.NegAtom, "tensor": fo.Tensor,
        "par": fo.Par, "plus": fo.Plus, "with": fo.With, "one": fo.One,
        "zero": fo.Zero, "top": fo.Top, "bot": fo.Bottom}.items()},
}

#: leaf kind -> how its atom is read; str() prints those `_GRAMMAR` uses
_LEAVES = {
    "name": str,
    "number": natural,
    "individual": lambda s: IVar(s[1:]) if s.startswith("?") else IConst(s),
    "address": parse_address,
}

#: sort -> the classes whose forms it admits
_SORTS = {"formula": Formula, "disjunction": Disj, "existential": Exists,
          "term": tm.GroundTerm, "binder": tm.Var,
          "polarized": fo.PolarizedFormula}

#: head -> (class, fixed field kinds, rest kind or ())
_ROWS = {head: (cls, tuple(k for k in spec.split() if k[0] != "*"),
                tuple(k[1:] for k in spec.split() if k[0] == "*"))
         for head, (cls, spec) in _GRAMMAR.items()}
_HEADS = {sort: {head for head, (cls, _) in _GRAMMAR.items()
                 if issubclass(cls, admits)} for sort, admits in _SORTS.items()}
_HEAD_OF = {cls: head for head, (cls, _) in _GRAMMAR.items()}


def syntax_from_text(text: str, sort: str):
    """The `sort` that the text denotes, read in one pass: each form is checked
    by `_ROWS` as it is met, its field count at its ')', where its node is
    built or taken from this read's memo.  A lexical fault is raised first."""
    words = re.sub(";[^\n]*", "", text).replace("(", " ( ").replace(")", " ) ")
    tokens, memo, stack = iter(words.split()), {}, []
    cls, kinds, rest, fields = None, (sort,), (), []       # the open form
    try:
        for t in tokens:
            if t == ")" and stack:
                if len(fields) != len(kinds):
                    _fields(_open_form(text, stack), len(kinds), bool(rest))
                if rest:
                    fields[len(kinds):] = [tuple(fields[len(kinds):])]
                if (node := memo.get(key := (cls, *fields))) is None:
                    node = memo[key] = cls(*fields)
                cls, kinds, rest, fields = stack.pop()
                fields.append(node)
                continue
            k = len(fields)
            kind = kinds[k] if k < len(kinds) else rest[0] if rest else None
            if kind is None:    # a field too many, or input after the top
                _fields(_open_form(text, stack), k)
            if kind in _LEAVES:
                x = t if t != "(" else _open_form(text, stack)[k + 1]
                fields.append(_atom(x, kind))
                continue
            if (h := t == "(" and next(tokens, ")")) not in _HEADS[kind]:
                _head(_open_form(text, stack)[k + 1], kind)  # headless: raises
                raise ParseError(f"({h} …) is not {_a(kind)}")
            stack.append((cls, kinds, rest, fields))
            (cls, kinds, rest), fields = _ROWS[h], []
        if stack or not fields:
            raise ParseError("not one form")
    except ParseError:
        read_sexpr(text)
        raise
    return fields[0]


def _open_form(text: str, stack: list) -> list:
    """The list form of the form `syntax_from_text` reads the fields of."""
    form = [None, read_sexpr(text)]             # the top, in a pseudo-form
    for *_, above in stack:
        form = form[len(above) + 1]
    return form


class TextCache:
    """Where recent prints put the nodes they walked, node -> (text, start,
    end), so that a print copies them instead of walking them.  `held` is the
    length of the texts kept alive; past twice the latest print's, the cache
    starts over, so it stays bounded by the current term."""

    def __init__(self):
        self.spans, self.held = {}, 0


def syntax_text(value, sort: str, cache: TextCache | None = None) -> str:
    """The text of the value, a `sort`, in one walk over `_ROWS`.  A node met
    before, in the cache or in this print, is copied, not walked again."""
    spans = {} if cache is None else cache.spans
    parts, walked = [], {}         # walked: node -> [first part, end part]
    todo = [(value, sort)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        if item.__class__ is list:  # the end of a walked node
            parts.append(")")
            item[1] = len(parts)
            continue
        node, sort = item
        head = _HEAD_OF.get(node.__class__)
        if head not in _HEADS[sort]:
            raise ParseError(f"expected {_a(sort)}, "
                             f"got {_a(type(node).__name__)}")
        if (span := spans.get(node)) is not None:
            parts.append(span[0][span[1]:span[2]])
            continue
        if (span := walked.get(node)) is not None:
            parts += parts[span[0]:span[1]]
            continue
        _, kinds, rest = _ROWS[head]
        fields = node._key
        if rest:
            fields = fields[:-1] + fields[-1]
            kinds = kinds + rest * len(node._key[-1])
        walked[node] = span = [len(parts), None]
        later, piece = [], "(" + head      # the node's items, in order
        for kind, field in zip(kinds, fields):
            if kind in _LEAVES:
                piece += " " + str(field)
            else:
                later += (piece + " ", (field, kind))
                piece = ""
        later += (piece, span) if piece else (span,)
        todo += reversed(later)
    text = "".join(parts)
    if cache is not None and walked:
        ends = [0, *accumulate(map(len, parts))]
        for node, (first, end) in walked.items():
            spans[node] = text, ends[first], ends[end]
        cache.held += len(text)
    if cache is not None and cache.held > 2 * len(text):
        cache.spans, cache.held = {}, 0
    return text


def formula_to_sexpr(f: Formula):
    return read_sexpr(syntax_text(f, "formula"))


def formula_from_sexpr(x) -> Formula:
    return syntax_from_text(write_sexpr(x), "formula")


def term_to_sexpr(t: tm.GroundTerm):
    return read_sexpr(syntax_text(t, "term"))


def term_from_sexpr(x) -> tm.GroundTerm:
    return syntax_from_text(write_sexpr(x), "term")


def polarized_to_sexpr(f: fo.PolarizedFormula):
    return read_sexpr(syntax_text(f, "polarized"))


def polarized_from_sexpr(x) -> fo.PolarizedFormula:
    return syntax_from_text(write_sexpr(x), "polarized")


def _expect(value, cls, what: str):
    if not isinstance(value, cls):
        raise ParseError(f"expected {_a(what)}, "
                         f"got {_a(type(value).__name__)}")
    return value


# ---------------------------------------------------------------------------
# designs


def _ram_to_sexpr(ram):
    return ["I", *[str(i) for i in ram]]


def _ram_from_sexpr(x):
    return tuple(_atom(i, "number") for i in _fields(x, 0, True, head="I"))


def _extra_clause(d: Design, inferred: frozenset) -> list:
    extra = sorted(d.base.pos - inferred)
    return [["extra", *[format_address(a) for a in extra]]] if extra else []


def _extra_from_sexpr(rest: list):
    """The addresses of a leading (extra …) clause in the rest of a pos or
    neg form, and the forms after it."""
    if rest and isinstance(rest[0], list) and rest[0][:1] == ["extra"]:
        return [_atom(a, "address") for a in rest[0][1:]], rest[1:]
    return [], rest


def design_to_sexpr(d: Design):
    def enter(d: Design):
        match d.node:
            case PosNode(focus, ram, kids):
                inferred = frozenset({focus}).union(*(c.base.pos for c in kids))
                return (lambda forms: [
                    "pos", format_address(focus), _ram_to_sexpr(ram),
                    *_extra_clause(d, inferred), *forms]), \
                    list(kids), range(len(kids))
            case NegNode(focus, branches):
                inferred = frozenset().union(
                    *(b.base.pos - star(focus, key) for key, b in branches))
                return (lambda forms: [
                    "neg", format_address(focus), *_extra_clause(d, inferred),
                    *[["branch", _ram_to_sexpr(key), form]
                      for (key, _), form in zip(branches, forms)]]), \
                    [b for _, b in branches], range(len(branches))
        head = "daimon" if isinstance(d.node, DaimonLeaf) else "fid"
        return None, [head, *map(format_address, sorted(d.base.pos))], ()
    return fold(_expect(d, Design, "design"), enter)


def design_from_sexpr(x) -> Design:
    def enter(x):
        match _head(x, "design"):
            case "daimon" | "fid" as head:
                return None, (daimon if head == "daimon" else fid)(
                    *[_atom(a, "address") for a in _fields(x, 0, True)]), ()
            case "pos":
                focus, ram, *rest = _fields(x, 2, True)
                focus, ram = _atom(focus, "address"), _ram_from_sexpr(ram)
                extra, rest = _extra_from_sexpr(rest)
                if len(rest) != len(ram):
                    raise ParseError("positive node child count does not "
                                     "match the ramification")
                return (lambda kids: positive(focus, dict(zip(ram, kids)),
                                              extra)), rest, range(len(rest))
            case "neg":
                focus, *rest = _fields(x, 1, True)
                focus = _atom(focus, "address")
                extra, rest = _extra_from_sexpr(rest)
                branches = [_fields(item, 2, head="branch") for item in rest]
                keys = [_ram_from_sexpr(key) for key, _ in branches]
                return (lambda bs: negative(focus, dict(zip(keys, bs)),
                                            extra)), \
                    [b for _, b in branches], range(len(branches))
            case head:
                raise ParseError(f"unknown design head {head!r}")
    return fold(x, enter)


# ---------------------------------------------------------------------------
# cut-nets and behaviours


def cutnet_to_sexpr(net: CutNet):
    return ["net", *[design_to_sexpr(d)
                     for d in _expect(net, CutNet, "cut-net").designs]]


def cutnet_from_sexpr(x) -> CutNet:
    return make_cutnet(design_from_sexpr(d)
                       for d in _fields(x, 0, True, head="net"))


def _pitchfork_to_sexpr(p: Pitchfork):
    if p.neg is None:
        return ["pos-base", *[format_address(a) for a in sorted(p.pos)]]
    return ["neg-base", format_address(p.neg),
            *[format_address(a) for a in sorted(p.pos)]]


def _pitchfork_from_sexpr(x) -> Pitchfork:
    match _head(x, "base"):
        case "pos-base":
            return Pitchfork(None, frozenset(
                _atom(a, "address") for a in _fields(x, 0, True)))
        case "neg-base":
            neg, *pos = _fields(x, 1, True)
            return Pitchfork(_atom(neg, "address"),
                             frozenset(_atom(a, "address") for a in pos))
        case head:
            raise ParseError(f"unknown base head {head!r}")


def bounds_to_sexpr(b: UniverseBounds):
    return ["bounds", str(b.max_depth),
            ["pool", *[_ram_to_sexpr(I) for I in b.pool]],
            _pitchfork_to_sexpr(b.base)]


def bounds_from_sexpr(x) -> UniverseBounds:
    depth, pool, base = _fields(x, 3, head="bounds")
    pool = tuple(_ram_from_sexpr(i) for i in _fields(pool, 0, True,
                                                     head="pool"))
    return UniverseBounds(_atom(depth, "number"), pool,
                          _pitchfork_from_sexpr(base))


def behaviour_to_sexpr(b: Behaviour):
    gens = sorted(_expect(b, Behaviour, "behaviour").generators, key=repr)
    return ["behaviour", bounds_to_sexpr(b.bounds),
            ["generators", *[design_to_sexpr(g) for g in gens]]]


def behaviour_from_sexpr(x) -> Behaviour:
    bounds, gens = _fields(x, 2, head="behaviour")
    bounds = bounds_from_sexpr(bounds)
    gens = [design_from_sexpr(g)
            for g in _fields(gens, 0, True, head="generators")]
    return behaviour(gens, bounds)


def tenv_from_sexpr(x) -> TranslationEnv:
    bounds, atoms, numbers = None, {}, {"fax-arity": 1, "fuel": DEFAULT_FUEL}
    for item in _fields(x, 0, True, head="tenv"):
        match _head(item, "tenv entry"):
            case "bounds":
                bounds = bounds_from_sexpr(item)
            case "fax-arity" | "fuel" as key:
                numbers[key] = _atom(*_fields(item, 1), "number")
            case "atom":
                f, b = _fields(item, 2)
                atoms[formula_from_sexpr(f)] = behaviour_from_sexpr(b)
            case other:
                raise ParseError(f"unknown tenv entry {other!r}")
    if bounds is None:
        raise ParseError("tenv needs a (bounds ...) entry")
    try:
        return TranslationEnv(atoms, bounds, numbers["fax-arity"],
                              numbers["fuel"])
    except MisboundAtom as e:
        raise ParseError(f"atom {syntax_text(e.args[0], 'formula')}: "
                         "its behaviour's depth or pool is not the env's")


# ---------------------------------------------------------------------------
# sequents


def sequent_to_sexpr(seq):
    return ["seq", *[polarized_to_sexpr(f)
                     for f in _expect(seq, tuple, "sequent")]]


def sequent_from_sexpr(x):
    return tuple(polarized_from_sexpr(f)
                 for f in _fields(x, 0, True, head="seq"))


# ---------------------------------------------------------------------------
# file helpers


#: extension -> (form reader or text sort, printer); .tenv files are read only
_FORMATS = {
    ".frm": ("formula", lambda f: syntax_text(f, "formula")),
    ".gt": ("term", lambda t: syntax_text(t, "term")),
    ".dsn": (design_from_sexpr, design_to_sexpr),
    ".net": (cutnet_from_sexpr, cutnet_to_sexpr),
    ".bhv": (behaviour_from_sexpr, behaviour_to_sexpr),
    ".seq": (sequent_from_sexpr, sequent_to_sexpr),
    ".tenv": (tenv_from_sexpr, None),
}


def _format(path: str):
    ext = os.path.splitext(path)[1]
    if ext not in _FORMATS:
        raise ParseError(f"unknown file extension {ext!r}")
    return ext, _FORMATS[ext]


def load(path: str):
    _, (reader, _) = _format(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return syntax_from_text(text, reader) if isinstance(reader, str) \
        else reader(read_sexpr(text))


def dump(value, path: str) -> None:
    ext, (_, printer) = _format(path)
    if printer is None:
        raise ParseError(f"{ext} files are read only")
    if not isinstance(text := printer(value), str):
        text = write_sexpr(text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
