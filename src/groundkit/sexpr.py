"""S-expression text formats for formulas (.frm), ground terms (.gt),
designs (.dsn), cut-nets (.net), behaviours (.bhv), polarized sequents
(.seq) and translation environments (.tenv, read only).  parse ∘ print = id
for every format but .tenv.

`_TABLE` is the grammar of every format, by sort: `_GRAMMAR`'s rows and
`_FILE_GRAMMAR`'s.  `syntax_from_text` reads any format by it in one pass,
on the split tokenizer of `read_sexpr`, and `syntax_text` prints any by it,
a file's values through `_parts`, the inverse of their builders; like
`write_sexpr`, they keep their own stacks, so nesting costs no Python stack.
A malformed form raises a `ParseError` naming its head.
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
from .interaction import CutNet, make_cutnet
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


def _spaced(text: str) -> str:
    """The text with comments cut (no token moves) and parens spaced out."""
    return re.sub(";[^\n]*", "", text).replace("(", " ( ").replace(")", " ) ")


def _error(text: str, message: str, k=None) -> ParseError:
    """An error at the k-th token of the text, or else at its end (at the
    comment that ends it, if one does)."""
    spaced = _spaced(text)
    at = len(spaced) if k is None else \
        next(islice(re.finditer(r"\S+", spaced), k, None)).start()
    line = spaced[spaced.rfind("\n", 0, at) + 1:at]   # before it, on its line
    col = len(line) - 2 * (line.count("(") + line.count(")")) \
        - spaced.startswith(("(", ")"), at)     # and the space it gained
    return ParseError(message, spaced.count("\n", 0, at) + 1, col + 1)


def read_sexpr(text: str):
    """Parse one s-expression (atoms are strings, lists are lists)."""
    stack: list = [[]]              # stack[0] holds the top once it is read
    for k, t in enumerate(_spaced(text).split()):
        if stack[0] or t == ")" and len(stack) == 1:
            raise _error(text, f"trailing input {t!r}" if stack[0]
                         else "unexpected ')'", k)
        if t == "(":
            stack.append([])
            continue
        form = stack.pop() if t == ")" else t
        stack[-1].append(form)
    if len(stack) > 1 or not stack[0]:
        raise _error(text, "unclosed '('" if len(stack) > 1
                     else "unexpected end of input")
    return stack[0][0]


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
    return ("an " if what[0] in "aeiouAEIOU" else "a ") + what


def _head(x, what: str) -> str:
    """The head of the form x, where a `what` form is expected."""
    if isinstance(x, list) and x and isinstance(x[0], str):
        return x[0]
    raise ParseError(f"expected {_a(what)} form, got {write_sexpr(x)}")


def _fields(x, n: int, more=False) -> list:
    """The fields of the form x, which takes n of them (n or more if
    `more`)."""
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


def _row(build, spec: str) -> tuple:
    """(build, fixed field kinds, rest kind or ()) of a row's spec."""
    return (build, tuple(k for k in spec.split() if k[0] != "*"),
            tuple(k[1:] for k in spec.split() if k[0] == "*"))


#: head -> (class, fixed field kinds, rest kind or ())
_ROWS = {head: _row(cls, spec) for head, (cls, spec) in _GRAMMAR.items()}
_HEADS = {sort: {head for head, (cls, _) in _GRAMMAR.items()
                 if issubclass(cls, admits)} for sort, admits in _SORTS.items()}
_HEAD_OF = {cls: head for head, (cls, _) in _GRAMMAR.items()}


def syntax_from_text(text: str, sort: str):
    """The `sort` that the text denotes, read in one pass: each form is checked
    by the sort's rows in `_TABLE` as it is met, its field count at its ')',
    where its value is built or taken from this read's memo.  `read_sexpr`
    raises a lexical fault first, before any other or a file's builders."""
    if sort not in _SORTS:
        read_sexpr(text)
    tokens, memo, stack = iter(_spaced(text).split()), {}, []
    build, kinds, rest, fields = None, (sort,), (), []     # the open form
    for t in tokens:
        if t == ")" and stack:
            if len(fields) < len(kinds):
                raise _fault(text, stack, kinds, rest, len(fields))
            if rest:
                fields[len(kinds):] = [tuple(fields[len(kinds):])]
            if (node := memo.get(key := (build, *fields))) is None:
                node = memo[key] = build(*fields)
            build, kinds, rest, fields = stack.pop()
            fields.append(node)
            continue
        k = len(fields)
        kind = kinds[k] if k < len(kinds) else rest[0] if rest else None
        if t != "(" and kind in _LEAVES:
            try:
                fields.append(_LEAVES[kind](t))
                continue
            except ValueError:
                pass
        elif t == "(" and kind in _TABLE:
            if (row := _TABLE[kind].get(h := next(tokens, ")"))) is not None:
                stack.append((build, kinds, rest, fields))
                (build, kinds, rest), fields = row, []
                continue
            if h not in ("(", ")"):     # a head the sort lacks, met first
                read_sexpr(text)
                raise _wrong([h], kind)
        raise _fault(text, stack, kinds, rest, k)
    if stack or not fields:             # unclosed, or empty
        read_sexpr(text)
    return fields[0]


def _fault(text: str, stack: list, kinds: tuple, rest: tuple,
           k: int) -> ParseError:
    """The fault `syntax_from_text` met at field k of its open form, of a row
    of these kinds, as the list reference finds it: a lexical fault, the
    field count, then field k (a row's leaves come before its parts)."""
    x = [None, read_sexpr(text)]                # the top, in a pseudo-form
    for *_, above in stack:
        x = x[len(above) + 1]
    _fields(x, len(kinds), bool(rest))
    if (kind := (kinds + rest * (k + 1))[k]) in _LEAVES:
        _atom(x[k + 1], kind)
    return _wrong(x[k + 1], kind)


def _wrong(x, sort: str) -> ParseError:
    """The fault of the part x, where a `sort` is expected (a+b reads as a;
    a design of one polarity reads as a design, but for the other's heads)."""
    sort = sort.partition("+")[0]
    if sort in ("positive", "negative"):
        if _head(x, "design") in _TABLE["design"]:
            return ParseError(f"({x[0]} …) is not {_a(sort)} design")
        sort = "design"
    if sort not in _WRONG:
        return ParseError(f"expected a ({sort} ...) form")
    return ParseError(_WRONG[sort].format(_head(x, sort.replace("-", " "))))


class TextCache:
    """Where recent prints put the nodes they walked, key -> (text, start,
    end), so that a print copies them instead of walking them.  `held` is the
    length of the texts kept alive; past twice the latest print's, the cache
    starts over, so it stays bounded by the current term."""

    def __init__(self):
        self.spans, self.held = {}, 0


def syntax_text(value, sort: str, cache: TextCache | None = None) -> str:
    """The text of the value, a `sort`, in one walk over `_TABLE`.  A node
    met before, in the cache or in this print, is copied, not walked again:
    an interned node is known by itself, any other value by (value, sort),
    since equal tuples print by the sort they are met as."""
    spans = {} if cache is None else cache.spans
    parts, walked = [], {}         # walked: key -> [first part, end part]
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
        if (head := _HEAD_OF.get(node.__class__)) in (table := _TABLE[sort]):
            key, fields = node, node._key
        else:       # a file's value, or one `_parts` refuses
            head, fields = _parts(node, sort)
            key = node if node.__class__ is Design else (node, sort)
        if (span := spans.get(key)) is not None:
            parts.append(span[0][span[1]:span[2]])
            continue
        if (span := walked.get(key)) is not None:
            parts += parts[span[0]:span[1]]
            continue
        _, kinds, rest = table[head]
        if rest:
            kinds = kinds + rest * len(fields[-1])
            fields = fields[:-1] + fields[-1]
        walked[key] = span = [len(parts), None]
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
        for key, (first, end) in walked.items():
            spans[key] = text, ends[first], ends[end]
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


# ---------------------------------------------------------------------------
# designs, cut-nets, behaviours, sequents and translation environments


def _rule(focus, *fields) -> Design:
    """A pos rule, its fields a ramification and premises, or a neg rule, its
    field its branches; an (extra …) clause, a frozenset, may lead them."""
    *ram, parts = fields
    lead = bool(parts) and isinstance(parts[0], frozenset)
    extra, parts = parts[0] if lead else (), parts[lead:]
    if any(isinstance(part, frozenset) for part in parts):
        raise ParseError("unknown design head 'extra'" if ram
                         else "expected a (branch ...) form")
    if not ram:
        return negative(focus, dict(parts), extra)
    if len(parts) != len(ram[0]):
        raise ParseError("positive node child count does not match the "
                         "ramification")
    if len(set(ram[0])) != len(ram[0]):
        raise ParseError("positive node ramification repeats an index")
    return positive(focus, dict(zip(ram[0], parts)), extra)


def _tenv(entries) -> TranslationEnv:
    """The env of the entries, (key, value) pairs: an atom's key is its
    formula, any other's a field of the env."""
    fields = {key: value for key, value in entries if isinstance(key, str)}
    if "bounds" not in fields:
        raise ParseError("tenv needs a (bounds ...) entry")
    try:
        return TranslationEnv({f: b for f, b in entries if f not in fields},
                              **fields)
    except MisboundAtom as e:
        raise ParseError(f"atom {syntax_text(e.args[0], 'formula')}: "
                         "its behaviour's depth or pool is not the env's")


#: file sort -> head -> (builder, field kinds), read as `_GRAMMAR`'s rows; at
#: the form's ')' the builder checks what the kinds cannot and builds it.
_FILE_GRAMMAR = {
    "positive": {"daimon": (lambda pos: daimon(*pos), "*address"),
                 "fid": (lambda pos: fid(*pos), "*address"),
                 "pos": (_rule, "address I *negative+extra")},
    "negative": {"neg": (_rule, "address *branch+extra")},
    "extra": {"extra": (frozenset, "*address")},
    "branch": {"branch": (lambda key, d: (key, d), "I positive")},
    "I": {"I": (tuple, "*number")},
    "net": {"net": (make_cutnet, "*design")},
    "base": {"pos-base": (lambda pos: Pitchfork(None, pos), "*address"),
             "neg-base": (Pitchfork, "address *address")},
    "bounds": {"bounds": (UniverseBounds, "number pool base")},
    "pool": {"pool": (tuple, "*I")},
    "behaviour": {"behaviour": (lambda bounds, gens: behaviour(gens, bounds),
                                "bounds generators")},
    "generators": {"generators": (tuple, "*design")},
    "seq": {"seq": (tuple, "*polarized")},
    "tenv": {"tenv": (_tenv, "*tenv-entry")},
    "tenv-entry": {"bounds": (lambda *f: ("bounds", UniverseBounds(*f)),
                              "number pool base"),
                   "fax-arity": (lambda n: ("fax_arity", n), "number"),
                   "fuel": (lambda n: ("fuel", n), "number"),
                   "atom": (lambda f, b: (f, b), "formula behaviour")},
}


def _texts(addresses) -> tuple:
    return tuple(map(format_address, sorted(addresses)))


def _parts(value, sort: str) -> tuple:
    """(head, fields) of a value of a file sort, the inverse of its row's
    builder: the fields in the row's order, a rest as a tuple and addresses
    as their text.  A tuple is the list of a row whose only field is a rest,
    or else a branch."""
    head = None
    match value:
        case Design(base, PosNode(focus, ram, kids)):
            extra = base.pos - {focus}.union(*(d.base.pos for d in kids))
            head, fields = "pos", (format_address(focus), ram,
                                   (extra,) * bool(extra) + kids)
        case Design(base, NegNode(focus, branches)):
            extra = base.pos.difference(
                *(d.base.pos - star(focus, key) for key, d in branches))
            head, fields = "neg", (format_address(focus),
                                   (extra,) * bool(extra) + branches)
        case Design(base, node):
            head = "daimon" if node.__class__ is DaimonLeaf else "fid"
            fields = (_texts(base.pos),)
        case frozenset():
            head, fields = "extra", (_texts(value),)
        case CutNet():
            head, fields = "net", (value.designs,)
        case Pitchfork(None, pos):
            head, fields = "pos-base", (_texts(pos),)
        case Pitchfork(neg, pos):
            head, fields = "neg-base", (format_address(neg), _texts(pos))
        case UniverseBounds(depth, pool, base):
            head, fields = "bounds", (depth, pool, base)
        case Behaviour(gens, bounds):
            head, fields = "behaviour", (bounds, tuple(sorted(gens, key=repr)))
        case tuple() if sort in ("I", "pool", "generators", "seq"):
            head, fields = sort, (value,)
        case (_, _):
            head, fields = "branch", value
    if head not in _TABLE[sort]:
        what = sort.partition("+")[0]
        raise ParseError(f"expected {_a(_NAMES.get(what, what))}, "
                         f"got {_a(type(value).__name__)}")
    return head, fields


#: sort -> head -> row, `syntax_from_text`'s table; a+b admits a's and b's
_TABLE = {**{sort: {head: _ROWS[head] for head in heads}
             for sort, heads in _HEADS.items()},
          **{sort: {head: _row(*row) for head, row in rows.items()}
             for sort, rows in _FILE_GRAMMAR.items()}}
_TABLE["design"] = {**_TABLE["positive"], **_TABLE["negative"]}
_TABLE.update({f"{a}+extra": {**_TABLE[a], **_TABLE["extra"]}
               for a in ("negative", "branch")})

#: sort -> what a value of it is called, where not the sort's name
_NAMES = {"net": "cut-net", "seq": "sequent", "positive": "positive design",
          "negative": "negative design"}

#: sort -> how a part whose head {} it lacks reads; a file sort not here has
#: one head, and a part with no head reads as in `_head`
_WRONG = {**{sort: "({} …) is not " + _a(sort) for sort in _SORTS},
          **{s: f"unknown {s} head {{!r}}" for s in ("design", "base")},
          "tenv-entry": "unknown tenv entry {!r}"}


def design_to_sexpr(d: Design):
    return read_sexpr(syntax_text(d, "design"))


def design_from_sexpr(x) -> Design:
    return syntax_from_text(write_sexpr(x), "design")


def cutnet_to_sexpr(net: CutNet):
    return read_sexpr(syntax_text(net, "net"))


def cutnet_from_sexpr(x) -> CutNet:
    return syntax_from_text(write_sexpr(x), "net")


def bounds_from_sexpr(x) -> UniverseBounds:
    return syntax_from_text(write_sexpr(x), "bounds")


def behaviour_to_sexpr(b: Behaviour):
    return read_sexpr(syntax_text(b, "behaviour"))


def behaviour_from_sexpr(x) -> Behaviour:
    return syntax_from_text(write_sexpr(x), "behaviour")


def tenv_from_sexpr(x) -> TranslationEnv:
    return syntax_from_text(write_sexpr(x), "tenv")


def sequent_to_sexpr(seq):
    return read_sexpr(syntax_text(seq, "seq"))


def sequent_from_sexpr(x):
    return syntax_from_text(write_sexpr(x), "seq")


# ---------------------------------------------------------------------------
# file helpers


#: extension -> the sort its text is; .tenv files are read only
_FORMATS = {".frm": "formula", ".gt": "term", ".dsn": "design", ".net": "net",
            ".bhv": "behaviour", ".seq": "seq", ".tenv": "tenv"}


def _format(path: str):
    ext = os.path.splitext(path)[1]
    if ext not in _FORMATS:
        raise ParseError(f"unknown file extension {ext!r}")
    return _FORMATS[ext]


def load(path: str):
    sort = _format(path)
    with open(path, encoding="utf-8") as fh:
        return syntax_from_text(fh.read(), sort)


def dump(value, path: str) -> None:
    if (sort := _format(path)) == "tenv":
        raise ParseError(".tenv files are read only")
    text = syntax_text(value, sort)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
