"""S-expression text formats for formulas (.frm), ground terms (.gt),
designs (.dsn), cut-nets (.net), behaviours (.bhv), polarized sequents
(.seq) and translation environments (.tenv, read only).  parse ∘ print = id
for every format that has a printer.
"""

from __future__ import annotations

from . import focusing as fo
from .behaviours import Behaviour, UniverseBounds, behaviour
from .designs import (
    DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode, daimon, fid,
    format_address, negative, parse_address, positive, star,
)
from .formulas import (
    Absurd, Atom, Conj, Disj, Exists, Forall, Formula, IConst, ITerm, IVar,
    Impl,
)
from .interaction import DEFAULT_FUEL, CutNet, make_cutnet
from . import terms as tm
from .translate import TranslationEnv


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        self.line, self.col = line, col
        super().__init__(message)


# ---------------------------------------------------------------------------
# reader / writer for raw s-expressions


def tokenize(text: str):
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, line, col)
            col += 1
            i += 1
        else:
            start = i
            scol = col
            while i < len(text) and not text[i].isspace() \
                    and text[i] not in "();":
                i += 1
                col += 1
            yield (text[start:i], line, scol)
    yield (None, line, col)


def read_sexpr(text: str):
    """Parse one s-expression (atoms are strings, lists are lists)."""
    toks = list(tokenize(text))
    pos = [0]

    def peek():
        return toks[pos[0]]

    def advance():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def expr():
        t, line, col = advance()
        if t is None:
            raise ParseError("unexpected end of input", line, col)
        if t == ")":
            raise ParseError("unexpected ')'", line, col)
        if t == "(":
            items = []
            while True:
                nt, nline, ncol = peek()
                if nt is None:
                    raise ParseError("unclosed '('", nline, ncol)
                if nt == ")":
                    advance()
                    return items
                items.append(expr())
        return t

    out = expr()
    t, line, col = peek()
    if t is not None:
        raise ParseError(f"trailing input {t!r}", line, col)
    return out


def write_sexpr(x) -> str:
    if isinstance(x, list):
        return "(" + " ".join(write_sexpr(i) for i in x) + ")"
    return str(x)


def _head(x, what):
    if not isinstance(x, list) or not x or not isinstance(x[0], str):
        raise ParseError(f"expected a {what} form, got {write_sexpr(x)}")
    return x[0]


# ---------------------------------------------------------------------------
# formulas


def iterm_to_sexpr(t: ITerm):
    return "?" + t.name if isinstance(t, IVar) else t.name


def iterm_from_sexpr(x) -> ITerm:
    if not isinstance(x, str):
        raise ParseError(f"expected an individual term, got {write_sexpr(x)}")
    return IVar(x[1:]) if x.startswith("?") else IConst(x)


def formula_to_sexpr(f: Formula):
    match f:
        case Atom(p, args):
            return ["atom", p, *[iterm_to_sexpr(a) for a in args]]
        case Absurd():
            return ["absurd"]
        case Conj(a, b):
            return ["and", formula_to_sexpr(a), formula_to_sexpr(b)]
        case Disj(a, b):
            return ["or", formula_to_sexpr(a), formula_to_sexpr(b)]
        case Impl(a, b):
            return ["impl", formula_to_sexpr(a), formula_to_sexpr(b)]
        case Forall(v, b):
            return ["forall", v, formula_to_sexpr(b)]
        case Exists(v, b):
            return ["exists", v, formula_to_sexpr(b)]
    raise TypeError(f"not a formula: {f!r}")


def formula_from_sexpr(x) -> Formula:
    head = _head(x, "formula")
    match head:
        case "atom":
            return Atom(x[1], tuple(iterm_from_sexpr(a) for a in x[2:]))
        case "absurd":
            return Absurd()
        case "and":
            return Conj(formula_from_sexpr(x[1]), formula_from_sexpr(x[2]))
        case "or":
            return Disj(formula_from_sexpr(x[1]), formula_from_sexpr(x[2]))
        case "impl":
            return Impl(formula_from_sexpr(x[1]), formula_from_sexpr(x[2]))
        case "forall":
            return Forall(x[1], formula_from_sexpr(x[2]))
        case "exists":
            return Exists(x[1], formula_from_sexpr(x[2]))
    raise ParseError(f"unknown formula head {head!r}")


# ---------------------------------------------------------------------------
# ground terms


def term_to_sexpr(t: tm.GroundTerm):
    F = formula_to_sexpr
    match t:
        case tm.Var(n, ty):
            return ["var", n, F(ty)]
        case tm.Const(n, ty):
            return ["const", n, F(ty)]
        case tm.ConjI(a, b):
            return ["conj-i", term_to_sexpr(a), term_to_sexpr(b)]
        case tm.DisjI(side, d, b):
            return ["disj-i", str(side), F(d), term_to_sexpr(b)]
        case tm.ImplI(x, b):
            return ["impl-i", term_to_sexpr(x), term_to_sexpr(b)]
        case tm.ForallI(x, b):
            return ["forall-i", x, term_to_sexpr(b)]
        case tm.ExistsI(w, e, b):
            return ["exists-i", iterm_to_sexpr(w), F(e), term_to_sexpr(b)]
        case tm.Exploder(ty, b):
            return ["exploder", F(ty), term_to_sexpr(b)]
        case tm.ConjE(side, b):
            return ["conj-e", str(side), term_to_sexpr(b)]
        case tm.DisjE(x1, x2, s, u, v):
            return ["disj-e", term_to_sexpr(x1), term_to_sexpr(x2),
                    term_to_sexpr(s), term_to_sexpr(u), term_to_sexpr(v)]
        case tm.ImplE(f, a):
            return ["impl-e", term_to_sexpr(f), term_to_sexpr(a)]
        case tm.ForallE(s, b):
            return ["forall-e", iterm_to_sexpr(s), term_to_sexpr(b)]
        case tm.ExistsE(x, v, s, u):
            return ["exists-e", x, term_to_sexpr(v), term_to_sexpr(s),
                    term_to_sexpr(u)]
        case tm.DS(a, b):
            return ["ds", term_to_sexpr(a), term_to_sexpr(b)]
        case tm.UserOp(n, args):
            return ["op", n, *[term_to_sexpr(a) for a in args]]
        case tm.MetaVar(n):
            return ["meta", n]
    raise TypeError(f"not a ground term: {t!r}")


def term_from_sexpr(x) -> tm.GroundTerm:
    F = formula_from_sexpr
    head = _head(x, "ground term")

    def var(y) -> tm.Var:
        v = term_from_sexpr(y)
        if not isinstance(v, tm.Var):
            raise ParseError("expected a (var ...) binder")
        return v

    match head:
        case "var":
            return tm.Var(x[1], F(x[2]))
        case "const":
            return tm.Const(x[1], F(x[2]))
        case "conj-i":
            return tm.ConjI(term_from_sexpr(x[1]), term_from_sexpr(x[2]))
        case "disj-i":
            d = F(x[2])
            if not isinstance(d, Disj):
                raise ParseError("disj-i annotation must be a disjunction")
            return tm.DisjI(int(x[1]), d, term_from_sexpr(x[3]))
        case "impl-i":
            return tm.ImplI(var(x[1]), term_from_sexpr(x[2]))
        case "forall-i":
            return tm.ForallI(x[1], term_from_sexpr(x[2]))
        case "exists-i":
            e = F(x[2])
            if not isinstance(e, Exists):
                raise ParseError("exists-i annotation must be existential")
            return tm.ExistsI(iterm_from_sexpr(x[1]), e, term_from_sexpr(x[3]))
        case "exploder":
            return tm.Exploder(F(x[1]), term_from_sexpr(x[2]))
        case "conj-e":
            return tm.ConjE(int(x[1]), term_from_sexpr(x[2]))
        case "disj-e":
            return tm.DisjE(var(x[1]), var(x[2]), term_from_sexpr(x[3]),
                            term_from_sexpr(x[4]), term_from_sexpr(x[5]))
        case "impl-e":
            return tm.ImplE(term_from_sexpr(x[1]), term_from_sexpr(x[2]))
        case "forall-e":
            return tm.ForallE(iterm_from_sexpr(x[1]), term_from_sexpr(x[2]))
        case "exists-e":
            return tm.ExistsE(x[1], var(x[2]), term_from_sexpr(x[3]),
                              term_from_sexpr(x[4]))
        case "ds":
            return tm.DS(term_from_sexpr(x[1]), term_from_sexpr(x[2]))
        case "op":
            return tm.UserOp(x[1], tuple(term_from_sexpr(a) for a in x[2:]))
        case "meta":
            return tm.MetaVar(x[1])
    raise ParseError(f"unknown term head {head!r}")


# ---------------------------------------------------------------------------
# designs


def _ram_to_sexpr(ram):
    return ["I", *[str(i) for i in ram]]


def _ram_from_sexpr(x):
    if _head(x, "ramification") != "I":
        raise ParseError("expected an (I ...) ramification")
    return tuple(int(i) for i in x[1:])


def _extra_clause(d: Design, inferred: frozenset) -> list:
    extra = sorted(d.base.pos - inferred)
    return [["extra", *[format_address(a) for a in extra]]] if extra else []


def design_to_sexpr(d: Design):
    match d.node:
        case DaimonLeaf():
            return ["daimon", *[format_address(a) for a in sorted(d.base.pos)]]
        case FidLeaf():
            return ["fid", *[format_address(a) for a in sorted(d.base.pos)]]
        case PosNode(focus, ram, kids):
            inferred = frozenset({focus})
            for c in kids:
                inferred |= c.base.pos
            return (["pos", format_address(focus), _ram_to_sexpr(ram)]
                    + _extra_clause(d, inferred)
                    + [design_to_sexpr(c) for c in kids])
        case NegNode(focus, branches):
            inferred = frozenset()
            for key, b in branches:
                inferred |= b.base.pos - star(focus, key)
            return (["neg", format_address(focus)]
                    + _extra_clause(d, inferred)
                    + [["branch", _ram_to_sexpr(key), design_to_sexpr(b)]
                       for key, b in branches])
    raise TypeError(f"not a design: {d!r}")


def design_from_sexpr(x) -> Design:
    head = _head(x, "design")
    match head:
        case "daimon":
            return daimon(*[parse_address(a) for a in x[1:]])
        case "fid":
            return fid(*[parse_address(a) for a in x[1:]])
        case "pos":
            focus = parse_address(x[1])
            ram = _ram_from_sexpr(x[2])
            rest = x[3:]
            extra = []
            if rest and isinstance(rest[0], list) and rest[0][:1] == ["extra"]:
                extra = [parse_address(a) for a in rest[0][1:]]
                rest = rest[1:]
            kids = [design_from_sexpr(c) for c in rest]
            if len(kids) != len(ram):
                raise ParseError("positive node child count does not match "
                                 "the ramification")
            return positive(focus, dict(zip(ram, kids)), extra)
        case "neg":
            focus = parse_address(x[1])
            rest = x[2:]
            extra = []
            if rest and isinstance(rest[0], list) and rest[0][:1] == ["extra"]:
                extra = [parse_address(a) for a in rest[0][1:]]
                rest = rest[1:]
            branches = {}
            for item in rest:
                if _head(item, "branch") != "branch":
                    raise ParseError("expected a (branch (I ...) design) form")
                branches[_ram_from_sexpr(item[1])] = design_from_sexpr(item[2])
            return negative(focus, branches, extra)
    raise ParseError(f"unknown design head {head!r}")


# ---------------------------------------------------------------------------
# cut-nets and behaviours


def cutnet_to_sexpr(net: CutNet):
    return ["net", *[design_to_sexpr(d) for d in net.designs]]


def cutnet_from_sexpr(x) -> CutNet:
    if _head(x, "net") != "net":
        raise ParseError("expected a (net ...) form")
    return make_cutnet(design_from_sexpr(d) for d in x[1:])


def _pitchfork_to_sexpr(p: Pitchfork):
    if p.neg is None:
        return ["pos-base", *[format_address(a) for a in sorted(p.pos)]]
    return ["neg-base", format_address(p.neg),
            *[format_address(a) for a in sorted(p.pos)]]


def _pitchfork_from_sexpr(x) -> Pitchfork:
    head = _head(x, "base")
    if head == "pos-base":
        return Pitchfork(None, frozenset(parse_address(a) for a in x[1:]))
    if head == "neg-base":
        return Pitchfork(parse_address(x[1]),
                         frozenset(parse_address(a) for a in x[2:]))
    raise ParseError(f"unknown base head {head!r}")


def bounds_to_sexpr(b: UniverseBounds):
    return ["bounds", str(b.max_depth),
            ["pool", *[_ram_to_sexpr(I) for I in b.pool]],
            _pitchfork_to_sexpr(b.base)]


def bounds_from_sexpr(x) -> UniverseBounds:
    if _head(x, "bounds") != "bounds":
        raise ParseError("expected a (bounds ...) form")
    pool = tuple(_ram_from_sexpr(i) for i in x[2][1:])
    return UniverseBounds(int(x[1]), pool, _pitchfork_from_sexpr(x[3]))


def behaviour_to_sexpr(b: Behaviour):
    gens = sorted(b.generators, key=repr)
    return ["behaviour", bounds_to_sexpr(b.bounds),
            ["generators", *[design_to_sexpr(g) for g in gens]]]


def behaviour_from_sexpr(x) -> Behaviour:
    if _head(x, "behaviour") != "behaviour":
        raise ParseError("expected a (behaviour ...) form")
    bounds = bounds_from_sexpr(x[1])
    gens = [design_from_sexpr(g) for g in x[2][1:]]
    return behaviour(gens, bounds)


def tenv_from_sexpr(x) -> TranslationEnv:
    if not (isinstance(x, list) and x and x[0] == "tenv"):
        raise ParseError("expected a (tenv ...) form")
    bounds = None
    atoms = {}
    fax_arity = 1
    fuel = DEFAULT_FUEL
    for item in x[1:]:
        match item[0]:
            case "bounds":
                bounds = bounds_from_sexpr(item)
            case "fax-arity":
                fax_arity = int(item[1])
            case "fuel":
                fuel = int(item[1])
            case "atom":
                atoms[formula_from_sexpr(item[1])] = \
                    behaviour_from_sexpr(item[2])
            case other:
                raise ParseError(f"unknown tenv entry {other!r}")
    if bounds is None:
        raise ParseError("tenv needs a (bounds ...) entry")
    return TranslationEnv(atoms, bounds, fax_arity, fuel)


# ---------------------------------------------------------------------------
# polarized formulas and sequents


def polarized_to_sexpr(f: fo.PolarizedFormula):
    match f:
        case fo.PosAtom(n):
            return ["atom+", n]
        case fo.NegAtom(n):
            return ["atom-", n]
        case fo.Tensor(a, b):
            return ["tensor", polarized_to_sexpr(a), polarized_to_sexpr(b)]
        case fo.Par(a, b):
            return ["par", polarized_to_sexpr(a), polarized_to_sexpr(b)]
        case fo.Plus(a, b):
            return ["plus", polarized_to_sexpr(a), polarized_to_sexpr(b)]
        case fo.With(a, b):
            return ["with", polarized_to_sexpr(a), polarized_to_sexpr(b)]
        case fo.One():
            return ["one"]
        case fo.Zero():
            return ["zero"]
        case fo.Top():
            return ["top"]
        case fo.Bottom():
            return ["bot"]
    raise TypeError(f"not a polarized formula: {f!r}")


def polarized_from_sexpr(x) -> fo.PolarizedFormula:
    head = _head(x, "polarized formula")
    match head:
        case "atom+":
            return fo.PosAtom(x[1])
        case "atom-":
            return fo.NegAtom(x[1])
        case "tensor":
            return fo.Tensor(polarized_from_sexpr(x[1]),
                             polarized_from_sexpr(x[2]))
        case "par":
            return fo.Par(polarized_from_sexpr(x[1]),
                          polarized_from_sexpr(x[2]))
        case "plus":
            return fo.Plus(polarized_from_sexpr(x[1]),
                           polarized_from_sexpr(x[2]))
        case "with":
            return fo.With(polarized_from_sexpr(x[1]),
                           polarized_from_sexpr(x[2]))
        case "one":
            return fo.One()
        case "zero":
            return fo.Zero()
        case "top":
            return fo.Top()
        case "bot":
            return fo.Bottom()
    raise ParseError(f"unknown polarized head {head!r}")


def sequent_to_sexpr(seq):
    return ["seq", *[polarized_to_sexpr(f) for f in seq]]


def sequent_from_sexpr(x):
    if _head(x, "seq") != "seq":
        raise ParseError("expected a (seq ...) form")
    return tuple(polarized_from_sexpr(f) for f in x[1:])


# ---------------------------------------------------------------------------
# file helpers


_PARSERS = {
    ".frm": formula_from_sexpr,
    ".gt": term_from_sexpr,
    ".dsn": design_from_sexpr,
    ".net": cutnet_from_sexpr,
    ".bhv": behaviour_from_sexpr,
    ".seq": sequent_from_sexpr,
    ".tenv": tenv_from_sexpr,
}


def load(path: str):
    import os
    ext = os.path.splitext(path)[1]
    parser = _PARSERS.get(ext)
    if parser is None:
        raise ParseError(f"unknown file extension {ext!r}")
    with open(path, encoding="utf-8") as fh:
        return parser(read_sexpr(fh.read()))


def dump(value, path: str) -> None:
    import os
    ext = os.path.splitext(path)[1]
    writers = {
        ".frm": formula_to_sexpr,
        ".gt": term_to_sexpr,
        ".dsn": design_to_sexpr,
        ".net": cutnet_to_sexpr,
        ".bhv": behaviour_to_sexpr,
        ".seq": sequent_to_sexpr,
    }
    writer = writers.get(ext)
    if writer is None:
        raise ParseError(f"unknown file extension {ext!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_sexpr(writer(value)) + "\n")
