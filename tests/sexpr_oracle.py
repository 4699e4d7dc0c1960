"""List-walking reference for reading and printing the file formats.

Reads a `.dsn`, `.net`, `.bhv`, `.seq` or `.tenv` s-expression the
two-step way: a regex tokenizer and `oracle_read_sexpr` give the whole list
first, then one walker per format checks and builds each form top-down,
before its parts; formulas and polarized formulas go through
`test_sexpr.reference_read`.  Prints a design, cut-net, bounds, behaviour
or sequent as a list built by hand for each format, for `write_sexpr`.
Used only to cross-check `sexpr.syntax_from_text`, which builds each form
at its ')', `sexpr.read_sexpr`, which splits the text on spaces, and
`sexpr.syntax_text`, which prints every format by the grammar table.
"""

import re
from itertools import islice

from groundkit.behaviours import behaviour, UniverseBounds
from groundkit.designs import (
    DaimonLeaf, NegNode, Pitchfork, PosNode, daimon, fid, format_address,
    negative, positive, star,
)
from groundkit.interaction import DEFAULT_FUEL, make_cutnet
from groundkit.sexpr import ParseError, _atom, _head, syntax_text
from groundkit.sharing import fold
from groundkit.translate import MisboundAtom, TranslationEnv

from test_sexpr import reference_form, reference_read


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


def oracle_read_sexpr(text: str):
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


def _ram_from_sexpr(x):
    return tuple(_atom(i, "number") for i in _fields(x, 0, True, head="I"))


def _extra_from_sexpr(rest: list):
    """The addresses of a leading (extra …) clause in the rest of a pos or
    neg form, and the forms after it."""
    if rest and isinstance(rest[0], list) and rest[0][:1] == ["extra"]:
        return [_atom(a, "address") for a in rest[0][1:]], rest[1:]
    return [], rest


#: design head -> the polarity of its design
_POLARITY = {"daimon": "positive", "fid": "positive", "pos": "positive",
             "neg": "negative"}


def design_from_sexpr(x):
    """The design of x; a pos rule's premises must be negative designs, and
    a branch's design a positive one."""
    def enter(item):
        x, sort = item
        head = _head(x, "design")
        if sort != "design" and _POLARITY.get(head, sort) != sort:
            raise ParseError(f"({head} …) is not a {sort} design")
        match head:
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
                if len(set(ram)) != len(ram):
                    raise ParseError("positive node ramification repeats "
                                     "an index")
                return (lambda kids: positive(focus, dict(zip(ram, kids)),
                                              extra)), \
                    [(k, "negative") for k in rest], range(len(rest))
            case "neg":
                focus, *rest = _fields(x, 1, True)
                focus = _atom(focus, "address")
                extra, rest = _extra_from_sexpr(rest)
                branches = [_fields(item, 2, head="branch") for item in rest]
                keys = [_ram_from_sexpr(key) for key, _ in branches]
                return (lambda bs: negative(focus, dict(zip(keys, bs)),
                                            extra)), \
                    [(b, "positive") for _, b in branches], \
                    range(len(branches))
            case head:
                raise ParseError(f"unknown design head {head!r}")
    return fold((x, "design"), enter)


def cutnet_from_sexpr(x):
    return make_cutnet(design_from_sexpr(d)
                       for d in _fields(x, 0, True, head="net"))


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


def bounds_from_sexpr(x) -> UniverseBounds:
    depth, pool, base = _fields(x, 3, head="bounds")
    pool = tuple(_ram_from_sexpr(i) for i in _fields(pool, 0, True,
                                                     head="pool"))
    return UniverseBounds(_atom(depth, "number"), pool,
                          _pitchfork_from_sexpr(base))


def behaviour_from_sexpr(x):
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
                atoms[reference_read(f, "formula")] = behaviour_from_sexpr(b)
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


def sequent_from_sexpr(x):
    return tuple(reference_read(f, "polarized")
                 for f in _fields(x, 0, True, head="seq"))


#: extension -> the walker of its list form
READERS = {
    ".frm": lambda x: reference_read(x, "formula"),
    ".gt": lambda x: reference_read(x, "term"),
    ".dsn": design_from_sexpr,
    ".net": cutnet_from_sexpr,
    ".bhv": behaviour_from_sexpr,
    ".seq": sequent_from_sexpr,
    ".tenv": tenv_from_sexpr,
}


def oracle_read(text: str, ext: str):
    """The value of a file of the extension holding the text: the whole
    list is read first, so a lexical fault comes before any other."""
    return READERS[ext](oracle_read_sexpr(text))


# ---------------------------------------------------------------------------
# the list printers, one per format


def _ram_to_sexpr(ram):
    return ["I", *[str(i) for i in ram]]


def _extra_clause(d, inferred: frozenset) -> list:
    extra = sorted(d.base.pos - inferred)
    return [["extra", *[format_address(a) for a in extra]]] if extra else []


def design_to_sexpr(d):
    def enter(d):
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
    return fold(d, enter)


def cutnet_to_sexpr(net):
    return ["net", *[design_to_sexpr(d) for d in net.designs]]


def _pitchfork_to_sexpr(p: Pitchfork):
    if p.neg is None:
        return ["pos-base", *[format_address(a) for a in sorted(p.pos)]]
    return ["neg-base", format_address(p.neg),
            *[format_address(a) for a in sorted(p.pos)]]


def bounds_to_sexpr(b: UniverseBounds):
    return ["bounds", str(b.max_depth),
            ["pool", *[_ram_to_sexpr(I) for I in b.pool]],
            _pitchfork_to_sexpr(b.base)]


def behaviour_to_sexpr(b):
    gens = sorted(b.generators, key=repr)
    return ["behaviour", bounds_to_sexpr(b.bounds),
            ["generators", *[design_to_sexpr(g) for g in gens]]]


def sequent_to_sexpr(seq):
    return ["seq", *[reference_form(f, "polarized") for f in seq]]


#: printed sort -> the list printer of its values
PRINTERS = {
    "design": design_to_sexpr,
    "net": cutnet_to_sexpr,
    "bounds": bounds_to_sexpr,
    "behaviour": behaviour_to_sexpr,
    "seq": sequent_to_sexpr,
}
