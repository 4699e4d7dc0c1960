"""Typed term language of grounds: formation, reduction, groundhood.

`FIELDS` states each constructor's field kinds and binder scopes once;
`sexpr` and the walkers here run by it, the walkers with their own stacks.
Terms are hash-consed (Filliâtre and Conchon, *Type-Safe Modular
Hash-Consing*, 2006) on `sharing.Syntax`, the one base that interns ground
terms, formulas and polarized formulas alike: equal terms are one object,
which an intern table holds weakly, and a term's structural hash and free
(individual) variables are computed once, so `==`, `hash`, `free_vars` and
`term_free_ivars` cost O(1).  Reduction applies the conversion equations
leftmost-outermost and stops at a primitive head (weak-head form),
recording a trace; loops are detected by a seen-set of the terms
themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

from .formulas import (
    Absurd, Atom, AtomicBase, AtomicDerivation, Conj, Disj, Exists, Forall,
    Formula, ITerm, IVar, Impl, check_atomic_derivation, free_ivars,
    subst_ivar,
)
from .sharing import Refusal, Syntax, fold

DEFAULT_FUEL = 10_000


class GroundTypeError(Refusal):
    def __init__(self, subterm, message, expected=None, actual=None):
        self.subterm = subterm
        self.expected = expected
        self.actual = actual
        super().__init__(message)


# ---------------------------------------------------------------------------
# terms


class GroundTerm(Syntax):
    """A ground term; each subclass is a constructor, laid out in FIELDS.
    A term keeps its free variables and free individual variables."""

    __slots__ = ("_free_vars", "_free_ivars")

    def _made(self) -> None:
        self._free_vars, self._free_ivars = _free(self)


class Var(GroundTerm):
    __slots__ = __match_args__ = ("name", "type")


class Const(GroundTerm):
    __slots__ = __match_args__ = ("name", "type")


class ConjI(GroundTerm):
    __slots__ = __match_args__ = ("left", "right")


class DisjI(GroundTerm):
    __slots__ = __match_args__ = ("side", "disjunction", "body")


class ImplI(GroundTerm):
    __slots__ = __match_args__ = ("var", "body")


class ForallI(GroundTerm):
    __slots__ = __match_args__ = ("ivar", "body")


class ExistsI(GroundTerm):
    __slots__ = __match_args__ = ("witness", "existential", "body")


class Exploder(GroundTerm):
    """The explosion operation 0_A from absurdity to an arbitrary target."""

    __slots__ = __match_args__ = ("target", "body")


class ConjE(GroundTerm):
    __slots__ = __match_args__ = ("side", "body")


class DisjE(GroundTerm):
    __slots__ = __match_args__ = ("var1", "var2", "scrutinee", "left_arm",
                                  "right_arm")


class ImplE(GroundTerm):
    __slots__ = __match_args__ = ("function", "argument")


class ForallE(GroundTerm):
    __slots__ = __match_args__ = ("term", "body")


class ExistsE(GroundTerm):
    __slots__ = __match_args__ = ("ivar", "var", "scrutinee", "arm")


class DS(GroundTerm):
    """Disjunctive syllogism: from A or B and not-A, conclude B."""

    __slots__ = __match_args__ = ("disjunct", "negation")


class UserOp(GroundTerm):
    __slots__ = __match_args__ = ("name", "args")


class MetaVar(GroundTerm):
    """Pattern metavariable; only legal inside equation patterns."""

    __slots__ = __match_args__ = ("name",)


#: constructor -> the kind of each field, in order.  A kind is a leaf (name,
#: number, individual), a sort (formula, disjunction, existential, term, or
#: binder: a typed variable), or *term: a tuple of terms, the rest of the
#: form in `sexpr`.  After a binder, or a name that binds an individual
#: variable, `>` lists the later fields it binds in.
FIELDS = {
    Var: "name formula",
    Const: "name formula",
    ConjI: "term term",
    DisjI: "number disjunction term",        # side 1 or 2, full target type
    ImplI: "binder>body term",
    ForallI: "name>body term",
    ExistsI: "individual existential term",  # witness, full target type
    Exploder: "formula term",
    ConjE: "number term",
    DisjE: "binder>left_arm binder>right_arm term term term",
    ImplE: "term term",
    ForallE: "individual term",
    ExistsE: "name>var,arm binder>arm term term",
    DS: "term term",
    UserOp: "name *term",
    MetaVar: "name",
}

_FORMULAS = frozenset({"formula", "disjunction", "existential"})
_NONE: frozenset = frozenset()


def _make(cls, flat: list) -> GroundTerm:
    """The term of class cls with the spread-out fields flat."""
    n = len(cls._kinds) - 1
    return cls(*flat[:n], tuple(flat[n:])) if cls._kinds[n] == "*term" \
        else cls(*flat)


def _lay_out(cls) -> None:
    """Give cls its fields' kinds and the binders binding in each, from its
    row of FIELDS, and `_build`, its `_make`."""
    words = [w.split(">") + [""] for w in FIELDS[cls].split()]
    cls._kinds = tuple(w[0] for w in words)
    cls._scopes = tuple(tuple(i for i, w in enumerate(words)
                              if name in w[1].split(","))
                        for name in cls.__slots__)
    cls._build = partial(_make, cls)


for _cls in FIELDS:
    _lay_out(_cls)

#: constructors of the core language C (introduction-like primitives)
PRIMITIVE_HEADS = (ConjI, DisjI, ImplI, ForallI, ExistsI, Exploder, Const, Var)


def _spread(t: GroundTerm) -> tuple[list, tuple, tuple]:
    """The fields of t as a list, a *term tuple spread out, with the kind
    of each and the binders that bind in each."""
    kinds = t._kinds
    if kinds[-1] != "*term":
        return list(t._key), kinds, t._scopes
    *fixed, rest = t._key
    return ([*fixed, *rest], kinds[:-1] + ("term",) * len(rest),
            t._scopes[:-1] + ((),) * len(rest))


def _hidden(flat: list, scopes: tuple, x) -> set[int]:
    """The fields bound by a binder equal to x (variable or ivar name)."""
    return {j for j, scope in enumerate(scopes)
            if any(flat[i] == x for i in scope)}


def _free(t: GroundTerm) -> tuple[frozenset, frozenset]:
    """The free variables and free individual variables of a new term, from
    its fields' own."""
    if type(t) is Var:
        return frozenset((t,)), t.type._free_ivars   # a cycle, freed by gc
    flat, kinds, scopes = _spread(t)
    free_v = free_iv = _NONE
    for value, kind, scope in zip(flat, kinds, scopes):
        if kind == "term":
            vs, ivs = value._free_vars, value._free_ivars
        elif kind == "binder" or kind in _FORMULAS:
            vs, ivs = _NONE, value._free_ivars
        elif kind == "individual" and isinstance(value, IVar):
            vs, ivs = _NONE, frozenset((value.name,))
        else:
            continue
        if scope and (vs or ivs):
            bound = {flat[i] for i in scope}
            vs, ivs = vs - bound, ivs - bound
        if vs:
            free_v = free_v | vs if free_v else vs
        if ivs:
            free_iv = free_iv | ivs if free_iv else ivs
    return free_v, free_iv


def children(t: GroundTerm) -> tuple[GroundTerm, ...]:
    flat, kinds, _ = _spread(t)
    return tuple([v for v, k in zip(flat, kinds) if k == "term"])


def rebuild(t: GroundTerm, new_children: tuple[GroundTerm, ...]) -> GroundTerm:
    flat, kinds, _ = _spread(t)
    new = iter(new_children)
    return _make(type(t), [next(new) if k == "term" else v
                           for v, k in zip(flat, kinds)])


def _subterms(t: GroundTerm):
    """t and the terms inside it, each distinct one once, parents first."""
    seen, todo = set(), [t]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            yield node
            todo.extend(reversed(children(node)))


def free_vars(t: GroundTerm) -> frozenset[Var]:
    return t._free_vars


def term_free_ivars(t: GroundTerm) -> frozenset[str]:
    """Free individual variables, including those inside type annotations."""
    return t._free_ivars


def is_closed_term(t: GroundTerm) -> bool:
    return not free_vars(t) and not term_free_ivars(t)


# ---------------------------------------------------------------------------
# environment: base, constant registry, user operations with equations


@dataclass(frozen=True)
class UserOpDecl:
    name: str
    arg_types: tuple[Formula, ...]
    result: Formula


@dataclass(frozen=True)
class Equation:
    """A rewrite equation owned by a non-primitive operational symbol."""

    name: str
    lhs: GroundTerm
    rhs: GroundTerm
    owner: str


class EquationError(Exception):
    pass


def metavars(t: GroundTerm) -> frozenset[str]:
    return frozenset(n.name for n in _subterms(t) if type(n) is MetaVar)


def validate_equation(eq: Equation) -> None:
    if not isinstance(eq.lhs, UserOp) or eq.lhs.name != eq.owner:
        raise EquationError(
            f"equation {eq.name}: left pattern must be headed by {eq.owner}")
    extra = metavars(eq.rhs) - metavars(eq.lhs)
    if extra:
        raise EquationError(
            f"equation {eq.name}: right-side metavariables {sorted(extra)} "
            f"missing on the left")


@dataclass
class GroundEnv:
    """Everything reduction and groundhood checking consult.

    `derivations` registers the names c^A: each maps to a closed atomic
    derivation over `base`.
    """

    base: AtomicBase = field(default_factory=AtomicBase)
    derivations: dict[str, AtomicDerivation] = field(default_factory=dict)
    ops: dict[str, UserOpDecl] = field(default_factory=dict)
    equations: dict[str, list[Equation]] = field(default_factory=dict)

    def register_op(self, decl: UserOpDecl, equations: list[Equation] = ()) -> None:
        self.ops[decl.name] = decl
        for eq in equations:
            self.register_equation(eq)

    def register_equation(self, eq: Equation) -> None:
        validate_equation(eq)
        self.equations.setdefault(eq.owner, []).append(eq)


# ---------------------------------------------------------------------------
# typechecking


@dataclass(frozen=True)
class GroundType:
    antecedents: tuple[Formula, ...]
    succedent: Formula
    free_individual_vars: frozenset[str] = frozenset()


def typecheck(t: GroundTerm, env: GroundEnv | None = None) -> GroundType:
    """Derive the unique type of a term; free variables become antecedents.
    Each rule runs once its term fields have types (`fold`), so of several
    faults the one reported need not be the leftmost."""
    env = env or GroundEnv()
    antecedents: dict[Var, None] = {}        # in order of first occurrence

    def enter(item):
        t, bound = item
        if type(t) is Var:
            if t not in bound:
                if any(b.name == t.name and b != t for b in bound):
                    raise GroundTypeError(
                        t, f"variable {t.name} shadowed at a different type")
                antecedents[t] = None
            return None, t.type, ()
        if not isinstance(t, GroundTerm):
            raise GroundTypeError(t, f"not a ground term: {t!r}")
        flat, kinds, scopes = _spread(t)
        parts = [(flat[j], bound.union(flat[i] for i in scopes[j]
                                       if kinds[i] == "binder"))
                 for j, kind in enumerate(kinds) if kind == "term"]
        return partial(_type_rule, t, env), parts, range(len(parts))

    succ = fold((t, frozenset()), enter)
    return GroundType(tuple(v.type for v in antecedents), succ,
                      term_free_ivars(t))


#: eliminator -> the connective the type of its first term field must have,
#: and the fault when it has another
_ELIMINATES = {
    ConjE: (Conj, "projection from a non-conjunction"),
    DisjE: (Disj, "case split on a non-disjunction"),
    ImplE: (Impl, "application of a non-function"),
    ForallE: (Forall, "instantiation of a non-universal"),
    ExistsE: (Exists, "witness split on a non-existential"),
    DS: (Disj, "disjunctive syllogism on a non-disjunction"),
}


def _type_rule(t: GroundTerm, env: GroundEnv, got: list) -> Formula:
    """The type of t, given got, the types of its term fields in order."""
    if (elim := _ELIMINATES.get(type(t))) and not isinstance(got[0], elim[0]):
        raise GroundTypeError(t, elim[1], actual=got[0])
    match t:
        case MetaVar():
            raise GroundTypeError(t, "metavariable outside an equation pattern")
        case Const(name, ty):
            if not isinstance(ty, (Atom, Absurd)):
                raise GroundTypeError(t, f"constant {name} must be atomic")
            return ty
        case ConjI():
            return Conj(*got)
        case DisjI(side, d):
            if side not in (1, 2):
                raise GroundTypeError(t, f"bad disjunct selector {side}")
            want = d.left if side == 1 else d.right
            if got[0] != want:
                raise GroundTypeError(t, "disjunct mismatch",
                                      expected=want, actual=got[0])
            return d
        case ImplI(x):
            return Impl(x.type, got[0])
        case ForallI(x):
            return Forall(x, got[0])
        case ExistsI(w, e):
            want = subst_ivar(e.body, e.var, w)
            if got[0] != want:
                raise GroundTypeError(t, "witness type mismatch",
                                      expected=want, actual=got[0])
            return e
        case Exploder(target):
            if not isinstance(got[0], Absurd):
                raise GroundTypeError(t, "explosion applied to a non-absurd term",
                                      expected=Absurd(), actual=got[0])
            return target
        case ConjE(side):
            return got[0].left if side == 1 else got[0].right
        case DisjE(x1, x2):
            ts, tu, tv = got
            if x1.type != ts.left or x2.type != ts.right:
                raise GroundTypeError(t, "case binder types do not match "
                                      "the disjuncts")
            if tu != tv:
                raise GroundTypeError(t, "case arms disagree",
                                      expected=tu, actual=tv)
            return tu
        case ImplE():
            tf, ta = got
            if ta != tf.left:
                raise GroundTypeError(t, "argument type mismatch",
                                      expected=tf.left, actual=ta)
            return tf.right
        case ForallE(s):
            return subst_ivar(got[0].body, got[0].var, s)
        case ExistsE(x, v):
            ts, res = got
            want = subst_ivar(ts.body, ts.var, IVar(x))
            if v.type != want:
                raise GroundTypeError(t, "witness binder type mismatch",
                                      expected=want, actual=v.type)
            if x in free_ivars(res):
                raise GroundTypeError(
                    t, f"existential eigenvariable {x} escapes into the result type")
            return res
        case DS():
            td, tn = got
            if tn != Impl(td.left, Absurd()):
                raise GroundTypeError(t, "second argument must negate the "
                                      "first disjunct",
                                      expected=Impl(td.left, Absurd()), actual=tn)
            return td.right
        case UserOp(name, args):
            decl = env.ops.get(name)
            if decl is None:
                raise GroundTypeError(t, f"unregistered operation {name}")
            if len(args) != len(decl.arg_types):
                raise GroundTypeError(t, f"{name} expects "
                                      f"{len(decl.arg_types)} arguments")
            for ty, want in zip(got, decl.arg_types):
                if ty != want:
                    raise GroundTypeError(t, f"argument of {name} has the "
                                          "wrong type", expected=want, actual=ty)
            return decl.result


# ---------------------------------------------------------------------------
# substitution


def _fresh_name(base: str, taken: set[str]) -> str:
    for k in itertools.count(1):
        cand = f"{base}_{k}"
        if cand not in taken:
            return cand
    raise AssertionError


def subst(t: GroundTerm, var: Var, repl: GroundTerm) -> GroundTerm:
    """Capture-avoiding substitution of a ground term for a typed variable.

    A binder named like a free variable of repl is renamed wherever it
    stands, whether or not var occurs under it."""
    repl_names = {v.name for v in free_vars(repl)}

    def enter(node: GroundTerm):
        if node is var:
            return None, repl, ()
        if var not in node._free_vars and not repl_names:
            return None, node, ()         # nothing to replace or rename
        flat, kinds, scopes = _spread(node)
        hidden = _hidden(flat, scopes, var)
        for i, x in enumerate(flat):
            if kinds[i] == "binder" and x is not var and x.name in repl_names:
                body = [j for j, scope in enumerate(scopes) if i in scope]
                taken = repl_names | {v.name for j in body
                                      for v in free_vars(flat[j])}
                flat[i] = nx = Var(_fresh_name(x.name, taken), x.type)
                for j in body:
                    flat[j] = subst(flat[j], x, nx)
        return type(node)._build, flat, [
            j for j, k in enumerate(kinds) if k == "term" and j not in hidden]
    return fold(t, enter)


def subst_term_ivar(t: GroundTerm, ivar: str, term: ITerm) -> GroundTerm:
    """Substitute an individual term everywhere, including type annotations."""
    def enter(node: GroundTerm):
        if ivar not in node._free_ivars:
            return None, node, ()
        flat, kinds, scopes = _spread(node)
        hidden = _hidden(flat, scopes, ivar)
        for j, kind in enumerate(kinds):
            if j not in hidden and kind in _FORMULAS:
                flat[j] = subst_ivar(flat[j], ivar, term)
            elif j not in hidden and flat[j] == IVar(ivar):
                flat[j] = term
        return type(node)._build, flat, [
            j for j, k in enumerate(kinds)
            if k in ("term", "binder") and j not in hidden]
    return fold(t, enter)


# ---------------------------------------------------------------------------
# reduction


def _match(pattern: GroundTerm, t: GroundTerm,
           binding: dict[str, GroundTerm]) -> bool:
    """Syntactic first-order matching; repeated metavariables must agree."""
    todo = [(pattern, t)]
    while todo:
        p, u = todo.pop()
        if type(p) is MetaVar:
            if binding.setdefault(p.name, u) is not u:
                return False
            continue
        (pf, kinds, _), (uf, u_kinds, _) = _spread(p), _spread(u)
        if type(p) is not type(u) or kinds != u_kinds or any(
                a != b for a, b, k in zip(pf, uf, kinds) if k != "term"):
            return False
        todo += reversed([(a, b) for a, b, k in zip(pf, uf, kinds)
                          if k == "term"])
    return True


def _instantiate(pattern: GroundTerm, binding: dict[str, GroundTerm]) -> GroundTerm:
    def enter(p: GroundTerm):
        if type(p) is MetaVar:
            return None, binding[p.name], ()
        flat, kinds, _ = _spread(p)
        return type(p)._build, flat, [
            j for j, k in enumerate(kinds) if k == "term"]
    return fold(pattern, enter)


def _head_step(t: GroundTerm, env: GroundEnv) -> tuple[GroundTerm, str] | None:
    """One conversion at the root, or None if the root is not a redex."""
    match t:
        case ImplE(ImplI(x, body), u):
            return subst(body, x, u), "impl-e"
        case ConjE(side, ConjI(l, r)):
            return (l if side == 1 else r), "conj-e"
        case DisjE(x1, x2, DisjI(side, _, w), u, v):
            if side == 1:
                return subst(u, x1, w), "disj-e"
            return subst(v, x2, w), "disj-e"
        case ForallE(s, ForallI(x, body)):
            return subst_term_ivar(body, x, s), "forall-e"
        case ExistsE(iv, x, ExistsI(w, _, body), u):
            x2 = Var(x.name, subst_ivar(x.type, iv, w))
            return subst(subst_term_ivar(u, iv, w), x2, body), "exists-e"
        case DS(DisjI(2, _, w), _):
            return w, "ds-2"
        case DS(DisjI(1, d, w), u):
            # the source displays the application arguments the other way
            # round, which does not typecheck; the negation is the function
            return Exploder(d.right, ImplE(u, w)), "ds-1"
        case UserOp(name, _):
            for eq in env.equations.get(name, ()):
                binding: dict[str, GroundTerm] = {}
                if _match(eq.lhs, t, binding):
                    return _instantiate(eq.rhs, binding), eq.name
            return None
    return None


def reduce_step_at(t: GroundTerm, env: GroundEnv | None = None,
                   ) -> tuple[GroundTerm, tuple[int, ...], str] | None:
    """Leftmost-outermost step with its position and equation name."""
    env = env or GroundEnv()
    path, node = [], t       # path: [ancestor, its children, the one searched]
    while (hit := _head_step(node, env)) is None:
        path.append([node, children(node), -1])
        while path[-1][2] + 1 == len(path[-1][1]):
            path.pop()
            if not path:
                return None
        path[-1][2] += 1
        node = path[-1][1][path[-1][2]]
    new = hit[0]
    for parent, cs, k in reversed(path):
        new = rebuild(parent, cs[:k] + (new,) + cs[k + 1:])
    return new, tuple(k for _, _, k in path), hit[1]


# ---------------------------------------------------------------------------
# normalization outcomes


@dataclass(frozen=True)
class Canonical:
    term: GroundTerm
    trace: tuple[tuple[tuple[int, ...], str], ...] = ()


@dataclass(frozen=True)
class Loop:
    cycle: tuple[GroundTerm, ...]
    trace: tuple[tuple[tuple[int, ...], str], ...] = ()


@dataclass(frozen=True)
class FuelExhausted:
    term: GroundTerm
    trace: tuple[tuple[tuple[int, ...], str], ...] = ()


@dataclass(frozen=True)
class Stuck:
    term: GroundTerm
    trace: tuple[tuple[tuple[int, ...], str], ...] = ()


ReductionOutcome = Canonical | Loop | FuelExhausted | Stuck


def is_primitive_head(t: GroundTerm) -> bool:
    return isinstance(t, PRIMITIVE_HEADS)


def normalize(t: GroundTerm, env: GroundEnv | None = None,
              fuel: int = DEFAULT_FUEL, observe=None) -> ReductionOutcome:
    """Iterate reduction to a primitive head, detecting loops by repetition.

    At most `fuel` reduction steps are taken, and `observe(pos, rule, term)`
    sees each step with the term it produced.
    """
    env = env or GroundEnv()
    trace: list[tuple[tuple[int, ...], str]] = []
    seen = {t: 0}                  # each term met, by its place in the run
    while True:
        if is_primitive_head(t):
            return Canonical(t, tuple(trace))
        hit = reduce_step_at(t, env)
        if hit is None:
            return Stuck(t, tuple(trace))
        if len(trace) >= fuel:
            return FuelExhausted(t, tuple(trace))
        t, pos, name = hit
        trace.append((pos, name))
        if observe is not None:
            observe(pos, name, t)
        if t in seen:
            return Loop(tuple(list(seen)[seen[t]:]) + (t,), tuple(trace))
        seen[t] = len(seen)


# ---------------------------------------------------------------------------
# groundhood


@dataclass(frozen=True)
class GroundVerdict:
    tag: str                       # "yes" | "no" | "unknown"
    reason: str = ""

    def __bool__(self):
        return self.tag == "yes"


def denotes_ground(t: GroundTerm, env: GroundEnv | None = None,
                   fuel: int = DEFAULT_FUEL) -> GroundVerdict:
    """Decide (structurally) whether a closed term denotes a ground.

    For function types the full condition quantifies over all closed
    instances and is undecidable; only the structural check runs.
    """
    env = env or GroundEnv()
    ty = typecheck(t, env)
    if ty.antecedents or not is_closed_term(t):
        raise GroundTypeError(t, "groundhood is defined for closed terms only")
    return _denotes(t, ty.succedent, env, fuel)


def _denotes(t, formula, env, fuel) -> GroundVerdict:
    if isinstance(formula, Absurd):
        return GroundVerdict("no", "no term denotes a ground for absurdity")
    out = normalize(t, env, fuel)
    match out:
        case Loop():
            return GroundVerdict("no", "reduction loops")
        case FuelExhausted():
            return GroundVerdict("unknown", "fuel exhausted")
        case Stuck(term):
            return GroundVerdict("no", f"stuck at non-primitive head "
                                 f"{type(term).__name__}")
    u = out.term
    match formula, u:
        case (Atom(), Const(name, cty)):
            if cty != formula:
                return GroundVerdict("no", "constant typed at a different atom")
            deriv = env.derivations.get(name)
            if deriv is None:
                return GroundVerdict("no", f"constant {name} names no derivation")
            if deriv.conclusion != formula or check_atomic_derivation(deriv, env.base):
                return GroundVerdict("no", f"constant {name} names an invalid "
                                     "derivation")
            return GroundVerdict("yes")
        case (Atom(), _):
            return GroundVerdict("no", "atomic type needs a derivation constant")
        case (Conj(a, b), ConjI(l, r)):
            for sub, want in ((l, a), (r, b)):
                v = _denotes(sub, want, env, fuel)
                if v.tag != "yes":
                    return v
            return GroundVerdict("yes")
        case (Disj(a, b), DisjI(side, d, body)):
            if d != formula:
                return GroundVerdict("no", "injection annotated at a different "
                                     "disjunction")
            return _denotes(body, a if side == 1 else b, env, fuel)
        case (Exists(x, a), ExistsI(w, e, body)):
            if e != formula:
                return GroundVerdict("no", "witness annotated at a different "
                                     "existential")
            return _denotes(body, subst_ivar(a, x, w), env, fuel)
        case (Impl(a, b), ImplI(x, body)):
            if x.type != a:
                return GroundVerdict("no", "binder typed at a different domain")
            return GroundVerdict("yes")
        case (Forall(), ForallI()):
            return GroundVerdict("yes")
    return GroundVerdict("no", f"canonical head {type(u).__name__} does not "
                         f"match the type")


# ---------------------------------------------------------------------------
# linearity


def is_linear(t: GroundTerm) -> bool:
    """True iff every implication binder binds exactly one occurrence."""
    return all(_occurrences(n.body, n.var) == 1
               for n in _subterms(t) if type(n) is ImplI)


def _occurrences(t: GroundTerm, v: Var) -> int:
    """The number of free occurrences of v in t."""
    n, todo = 0, [t]
    while todo:
        node = todo.pop()
        if node is v:
            n += 1
        elif v in node._free_vars:
            flat, kinds, scopes = _spread(node)
            hidden = _hidden(flat, scopes, v)
            todo.extend(c for j, (c, k) in enumerate(zip(flat, kinds))
                        if k == "term" and j not in hidden)
    return n
