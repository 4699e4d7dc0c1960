"""Typed term language of grounds: formation, reduction, groundhood.

Terms carry their binding structure explicitly; reduction applies the
conversion equations leftmost-outermost and stops at a primitive head
(weak-head form), recording a trace.  Loops are detected by a seen-set
of the terms themselves (frozen dataclasses, compared structurally).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .formulas import (
    Absurd, Atom, AtomicBase, AtomicDerivation, Conj, Disj, Exists, Forall,
    Formula, IConst, ITerm, IVar, Impl, check_atomic_derivation, free_ivars,
    subst_ivar,
)

DEFAULT_FUEL = 10_000


class GroundTypeError(Exception):
    def __init__(self, subterm, message, expected=None, actual=None):
        self.subterm = subterm
        self.expected = expected
        self.actual = actual
        super().__init__(message)


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str
    type: Formula


@dataclass(frozen=True)
class Const:
    name: str
    type: Formula


@dataclass(frozen=True)
class ConjI:
    left: "GroundTerm"
    right: "GroundTerm"


@dataclass(frozen=True)
class DisjI:
    side: int                      # 1 or 2
    disjunction: Disj              # full target type, as in the bracket notation
    body: "GroundTerm"


@dataclass(frozen=True)
class ImplI:
    var: Var
    body: "GroundTerm"


@dataclass(frozen=True)
class ForallI:
    ivar: str
    body: "GroundTerm"


@dataclass(frozen=True)
class ExistsI:
    witness: ITerm
    existential: Exists            # full target type
    body: "GroundTerm"


@dataclass(frozen=True)
class Exploder:
    """The explosion operation 0_A from absurdity to an arbitrary target."""

    target: Formula
    body: "GroundTerm"


@dataclass(frozen=True)
class ConjE:
    side: int
    body: "GroundTerm"


@dataclass(frozen=True)
class DisjE:
    var1: Var
    var2: Var
    scrutinee: "GroundTerm"
    left_arm: "GroundTerm"         # var1 bound here
    right_arm: "GroundTerm"        # var2 bound here


@dataclass(frozen=True)
class ImplE:
    function: "GroundTerm"
    argument: "GroundTerm"


@dataclass(frozen=True)
class ForallE:
    term: ITerm
    body: "GroundTerm"


@dataclass(frozen=True)
class ExistsE:
    ivar: str
    var: Var
    scrutinee: "GroundTerm"
    arm: "GroundTerm"              # ivar and var bound here


@dataclass(frozen=True)
class DS:
    """Disjunctive syllogism: from A or B and not-A, conclude B."""

    disjunct: "GroundTerm"
    negation: "GroundTerm"


@dataclass(frozen=True)
class UserOp:
    name: str
    args: tuple["GroundTerm", ...]


@dataclass(frozen=True)
class MetaVar:
    """Pattern metavariable; only legal inside equation patterns."""

    name: str


GroundTerm = (Var | Const | ConjI | DisjI | ImplI | ForallI | ExistsI
              | Exploder | ConjE | DisjE | ImplE | ForallE | ExistsE
              | DS | UserOp | MetaVar)

#: constructors of the core language C (introduction-like primitives)
PRIMITIVE_HEADS = (ConjI, DisjI, ImplI, ForallI, ExistsI, Exploder, Const, Var)


def children(t: GroundTerm) -> tuple[GroundTerm, ...]:
    match t:
        case ConjI(l, r):
            return (l, r)
        case DisjI(_, _, b) | ImplI(_, b) | ForallI(_, b) | ExistsI(_, _, b):
            return (b,)
        case Exploder(_, b) | ConjE(_, b) | ForallE(_, b):
            return (b,)
        case DisjE(_, _, s, u, v):
            return (s, u, v)
        case ImplE(f, a):
            return (f, a)
        case ExistsE(_, _, s, u):
            return (s, u)
        case DS(d, n):
            return (d, n)
        case UserOp(_, args):
            return args
        case _:
            return ()


def free_vars(t: GroundTerm) -> frozenset[Var]:
    match t:
        case Var():
            return frozenset([t])
        case ImplI(x, b):
            return free_vars(b) - {x}
        case DisjE(x1, x2, s, u, v):
            return free_vars(s) | (free_vars(u) - {x1}) | (free_vars(v) - {x2})
        case ExistsE(_, x, s, u):
            return free_vars(s) | (free_vars(u) - {x})
        case _:
            out: frozenset[Var] = frozenset()
            for c in children(t):
                out |= free_vars(c)
            return out


def term_free_ivars(t: GroundTerm) -> frozenset[str]:
    """Free individual variables, including those inside type annotations."""
    match t:
        case Var(_, ty) | Const(_, ty):
            return free_ivars(ty)
        case DisjI(_, d, b):
            return free_ivars(d) | term_free_ivars(b)
        case ExistsI(w, e, b):
            ws = frozenset([w.name]) if isinstance(w, IVar) else frozenset()
            return ws | free_ivars(e) | term_free_ivars(b)
        case ForallI(x, b):
            return term_free_ivars(b) - {x}
        case ForallE(s, b):
            ss = frozenset([s.name]) if isinstance(s, IVar) else frozenset()
            return ss | term_free_ivars(b)
        case ExistsE(x, v, s, u):
            return term_free_ivars(s) | ((term_free_ivars(u) | free_ivars(v.type)) - {x})
        case ImplI(x, b):
            return free_ivars(x.type) | term_free_ivars(b)
        case DisjE(x1, x2, s, u, v):
            return (term_free_ivars(s) | free_ivars(x1.type) | free_ivars(x2.type)
                    | term_free_ivars(u) | term_free_ivars(v))
        case Exploder(ty, b):
            return free_ivars(ty) | term_free_ivars(b)
        case _:
            out: frozenset[str] = frozenset()
            for c in children(t):
                out |= term_free_ivars(c)
            return out


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
    if isinstance(t, MetaVar):
        return frozenset([t.name])
    out: frozenset[str] = frozenset()
    for c in children(t):
        out |= metavars(c)
    return out


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

    @property
    def closed_categorical(self) -> bool:
        return not self.antecedents and not self.free_individual_vars


def typecheck(t: GroundTerm, env: GroundEnv | None = None) -> GroundType:
    """Derive the unique type of a term; free variables become antecedents."""
    env = env or GroundEnv()
    antecedents: list[Var] = []

    def note_free(v: Var):
        if v not in antecedents:
            antecedents.append(v)

    def tc(t: GroundTerm, bound: frozenset[Var]) -> Formula:
        match t:
            case MetaVar():
                raise GroundTypeError(t, "metavariable outside an equation pattern")
            case Var():
                if t not in bound:
                    if any(b.name == t.name and b != t for b in bound):
                        raise GroundTypeError(
                            t, f"variable {t.name} shadowed at a different type")
                    note_free(t)
                return t.type
            case Const(name, ty):
                if not isinstance(ty, (Atom, Absurd)):
                    raise GroundTypeError(t, f"constant {name} must be atomic")
                return ty
            case ConjI(l, r):
                return Conj(tc(l, bound), tc(r, bound))
            case DisjI(side, d, b):
                if side not in (1, 2):
                    raise GroundTypeError(t, f"bad disjunct selector {side}")
                want = d.left if side == 1 else d.right
                got = tc(b, bound)
                if got != want:
                    raise GroundTypeError(t, "disjunct mismatch",
                                          expected=want, actual=got)
                return d
            case ImplI(x, b):
                return Impl(x.type, tc(b, bound | {x}))
            case ForallI(x, b):
                return Forall(x, tc(b, bound))
            case ExistsI(w, e, b):
                want = subst_ivar(e.body, e.var, w)
                got = tc(b, bound)
                if got != want:
                    raise GroundTypeError(t, "witness type mismatch",
                                          expected=want, actual=got)
                return e
            case Exploder(target, b):
                got = tc(b, bound)
                if not isinstance(got, Absurd):
                    raise GroundTypeError(t, "explosion applied to a non-absurd term",
                                          expected=Absurd(), actual=got)
                return target
            case ConjE(side, b):
                got = tc(b, bound)
                if not isinstance(got, Conj):
                    raise GroundTypeError(t, "projection from a non-conjunction",
                                          actual=got)
                return got.left if side == 1 else got.right
            case DisjE(x1, x2, s, u, v):
                got = tc(s, bound)
                if not isinstance(got, Disj):
                    raise GroundTypeError(t, "case split on a non-disjunction",
                                          actual=got)
                if x1.type != got.left or x2.type != got.right:
                    raise GroundTypeError(t, "case binder types do not match "
                                          "the disjuncts")
                tu = tc(u, bound | {x1})
                tv = tc(v, bound | {x2})
                if tu != tv:
                    raise GroundTypeError(t, "case arms disagree",
                                          expected=tu, actual=tv)
                return tu
            case ImplE(f, a):
                tf = tc(f, bound)
                if not isinstance(tf, Impl):
                    raise GroundTypeError(t, "application of a non-function",
                                          actual=tf)
                ta = tc(a, bound)
                if ta != tf.left:
                    raise GroundTypeError(t, "argument type mismatch",
                                          expected=tf.left, actual=ta)
                return tf.right
            case ForallE(s, b):
                got = tc(b, bound)
                if not isinstance(got, Forall):
                    raise GroundTypeError(t, "instantiation of a non-universal",
                                          actual=got)
                return subst_ivar(got.body, got.var, s)
            case ExistsE(x, v, s, u):
                got = tc(s, bound)
                if not isinstance(got, Exists):
                    raise GroundTypeError(t, "witness split on a non-existential",
                                          actual=got)
                want = subst_ivar(got.body, got.var, IVar(x))
                if v.type != want:
                    raise GroundTypeError(t, "witness binder type mismatch",
                                          expected=want, actual=v.type)
                res = tc(u, bound | {v})
                if x in free_ivars(res):
                    raise GroundTypeError(
                        t, f"existential eigenvariable {x} escapes into the result type")
                return res
            case DS(d, n):
                td = tc(d, bound)
                if not isinstance(td, Disj):
                    raise GroundTypeError(t, "disjunctive syllogism on a "
                                          "non-disjunction", actual=td)
                tn = tc(n, bound)
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
                for a, want in zip(args, decl.arg_types):
                    got = tc(a, bound)
                    if got != want:
                        raise GroundTypeError(t, f"argument of {name} has the "
                                              "wrong type", expected=want, actual=got)
                return decl.result
        raise GroundTypeError(t, f"not a ground term: {t!r}")

    succ = tc(t, frozenset())
    free_iv = term_free_ivars(t)
    return GroundType(tuple(v.type for v in antecedents), succ, frozenset(free_iv))


# ---------------------------------------------------------------------------
# substitution


def _fresh_name(base: str, taken: set[str]) -> str:
    for k in itertools.count(1):
        cand = f"{base}_{k}"
        if cand not in taken:
            return cand
    raise AssertionError


def subst(t: GroundTerm, var: Var, repl: GroundTerm) -> GroundTerm:
    """Capture-avoiding substitution of a ground term for a typed variable."""
    repl_names = None           # names free in repl, found at the first binder

    def freshen(x: Var, body: GroundTerm) -> tuple[Var, GroundTerm]:
        nonlocal repl_names
        if repl_names is None:
            repl_names = {v.name for v in free_vars(repl)}
        if x.name in repl_names:
            taken = repl_names | {v.name for v in free_vars(body)}
            nx = Var(_fresh_name(x.name, taken), x.type)
            return nx, subst(body, x, nx)
        return x, body

    def go(t: GroundTerm) -> GroundTerm:
        match t:
            case Var():
                return repl if t == var else t
            case ImplI(x, b):
                if x == var:
                    return t
                x, b = freshen(x, b)
                return ImplI(x, go(b))
            case DisjE(x1, x2, s, u, v):
                s2 = go(s)
                if x1 == var:
                    u2 = u
                else:
                    x1, u = freshen(x1, u)
                    u2 = go(u)
                if x2 == var:
                    v2 = v
                else:
                    x2, v = freshen(x2, v)
                    v2 = go(v)
                return DisjE(x1, x2, s2, u2, v2)
            case ExistsE(iv, x, s, u):
                s2 = go(s)
                if x == var:
                    return ExistsE(iv, x, s2, u)
                x, u = freshen(x, u)
                return ExistsE(iv, x, s2, go(u))
            case _:
                return rebuild(t, tuple(go(c) for c in children(t)))
    return go(t)


def subst_term_ivar(t: GroundTerm, ivar: str, term: ITerm) -> GroundTerm:
    """Substitute an individual term everywhere, including type annotations."""
    def sv(v: Var) -> Var:
        return Var(v.name, subst_ivar(v.type, ivar, term))

    def si(s: ITerm) -> ITerm:
        return term if isinstance(s, IVar) and s.name == ivar else s

    def go(t: GroundTerm) -> GroundTerm:
        match t:
            case Var():
                return sv(t)
            case Const(n, ty):
                return Const(n, subst_ivar(ty, ivar, term))
            case DisjI(side, d, b):
                return DisjI(side, subst_ivar(d, ivar, term), go(b))
            case ExistsI(w, e, b):
                return ExistsI(si(w), subst_ivar(e, ivar, term), go(b))
            case ImplI(x, b):
                return ImplI(sv(x), go(b))
            case ForallI(x, b):
                return t if x == ivar else ForallI(x, go(b))
            case ForallE(s, b):
                return ForallE(si(s), go(b))
            case ExistsE(x, v, s, u):
                if x == ivar:
                    return ExistsE(x, v, go(s), u)
                return ExistsE(x, sv(v), go(s), go(u))
            case DisjE(x1, x2, s, u, v):
                return DisjE(sv(x1), sv(x2), go(s), go(u), go(v))
            case Exploder(ty, b):
                return Exploder(subst_ivar(ty, ivar, term), go(b))
            case _:
                return rebuild(t, tuple(go(c) for c in children(t)))
    return go(t)


def rebuild(t: GroundTerm, new_children: tuple[GroundTerm, ...]) -> GroundTerm:
    match t:
        case ConjI():
            return ConjI(*new_children)
        case DisjI(side, d, _):
            return DisjI(side, d, new_children[0])
        case ImplI(x, _):
            return ImplI(x, new_children[0])
        case ForallI(x, _):
            return ForallI(x, new_children[0])
        case ExistsI(w, e, _):
            return ExistsI(w, e, new_children[0])
        case Exploder(ty, _):
            return Exploder(ty, new_children[0])
        case ConjE(side, _):
            return ConjE(side, new_children[0])
        case DisjE(x1, x2, _, _, _):
            return DisjE(x1, x2, *new_children)
        case ImplE():
            return ImplE(*new_children)
        case ForallE(s, _):
            return ForallE(s, new_children[0])
        case ExistsE(x, v, _, _):
            return ExistsE(x, v, *new_children)
        case DS():
            return DS(*new_children)
        case UserOp(name, _):
            return UserOp(name, new_children)
        case _:
            return t


# ---------------------------------------------------------------------------
# reduction


def _match(pattern: GroundTerm, t: GroundTerm,
           binding: dict[str, GroundTerm]) -> bool:
    """Syntactic first-order matching; repeated metavariables must agree."""
    if isinstance(pattern, MetaVar):
        if pattern.name in binding:
            return binding[pattern.name] == t
        binding[pattern.name] = t
        return True
    if type(pattern) is not type(t):
        return False
    pc, tc_ = children(pattern), children(t)
    if len(pc) != len(tc_):
        return False
    # constructor payloads beyond children must agree; compare shells
    if rebuild(pattern, tuple(MetaVar("·") for _ in pc)) != \
       rebuild(t, tuple(MetaVar("·") for _ in tc_)):
        return False
    return all(_match(p, c, binding) for p, c in zip(pc, tc_))


def _instantiate(pattern: GroundTerm, binding: dict[str, GroundTerm]) -> GroundTerm:
    if isinstance(pattern, MetaVar):
        return binding[pattern.name]
    return rebuild(pattern, tuple(_instantiate(c, binding)
                                  for c in children(pattern)))


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

    def go(t: GroundTerm, pos: tuple[int, ...]):
        hit = _head_step(t, env)
        if hit is not None:
            return hit[0], pos, hit[1]
        cs = children(t)
        for i, c in enumerate(cs):
            sub = go(c, pos + (i,))
            if sub is not None:
                new, p, name = sub
                return rebuild(t, cs[:i] + (new,) + cs[i + 1:]), p, name
        return None
    return go(t, ())


def reduce_step(t: GroundTerm, env: GroundEnv | None = None) -> GroundTerm | None:
    hit = reduce_step_at(t, env)
    return hit[0] if hit else None


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
                   fuel: int = DEFAULT_FUEL,
                   sampler=None) -> GroundVerdict:
    """Decide (structurally) whether a closed term denotes a ground.

    For function types the full condition quantifies over all closed
    instances and is undecidable; by default only the structural check
    runs.  `sampler(formula)` may supply closed instance terms to probe.
    """
    env = env or GroundEnv()
    ty = typecheck(t, env)
    if ty.antecedents or not is_closed_term(t):
        raise GroundTypeError(t, "groundhood is defined for closed terms only")
    return _denotes(t, ty.succedent, env, fuel, sampler)


def _denotes(t, formula, env, fuel, sampler) -> GroundVerdict:
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
                v = _denotes(sub, want, env, fuel, sampler)
                if v.tag != "yes":
                    return v
            return GroundVerdict("yes")
        case (Disj(a, b), DisjI(side, d, body)):
            if d != formula:
                return GroundVerdict("no", "injection annotated at a different "
                                     "disjunction")
            return _denotes(body, a if side == 1 else b, env, fuel, sampler)
        case (Exists(x, a), ExistsI(w, e, body)):
            if e != formula:
                return GroundVerdict("no", "witness annotated at a different "
                                     "existential")
            return _denotes(body, subst_ivar(a, x, w), env, fuel, sampler)
        case (Impl(a, b), ImplI(x, body)):
            if x.type != a:
                return GroundVerdict("no", "binder typed at a different domain")
            if sampler is None:
                return GroundVerdict("yes")
            verdicts = [_denotes(subst(body, x, s), b, env, fuel, sampler)
                        for s in sampler(a)]
            if any(v.tag == "no" for v in verdicts):
                return GroundVerdict("no", "a sampled instance fails")
            if any(v.tag == "unknown" for v in verdicts):
                return GroundVerdict("unknown", "a sampled instance is undecided")
            return GroundVerdict("yes")
        case (Forall(x, a), ForallI(y, body)):
            if sampler is None:
                return GroundVerdict("yes")
            insts = [c for c in sampler(formula) if isinstance(c, IConst)]
            for c in insts:
                v = _denotes(subst_term_ivar(body, y, c),
                             subst_ivar(a, x, c), env, fuel, sampler)
                if v.tag != "yes":
                    return v
            return GroundVerdict("yes")
    return GroundVerdict("no", f"canonical head {type(u).__name__} does not "
                         f"match the type")


# ---------------------------------------------------------------------------
# closed instances and linearity


class SubstitutionError(Exception):
    pass


def close_instance(t: GroundTerm,
                   assignment: dict[Var | str, GroundTerm | ITerm],
                   env: GroundEnv | None = None) -> GroundTerm:
    """Simultaneous capture-avoiding substitution of closed values.

    Keys are typed variables (for ground terms) or individual-variable
    names (for individual terms).
    """
    env = env or GroundEnv()
    missing = [v for v in free_vars(t) if v not in assignment]
    missing += [x for x in term_free_ivars(t) if x not in assignment]
    if missing:
        raise SubstitutionError(f"missing assignment for {missing}")
    for key, val in assignment.items():
        if isinstance(key, str):
            if not isinstance(val, (IVar, IConst)):
                raise SubstitutionError(f"{key} needs an individual term")
            t = subst_term_ivar(t, key, val)
        else:
            ty = typecheck(val, env)
            if ty.succedent != key.type or ty.antecedents:
                raise SubstitutionError(
                    f"type mismatch for {key.name}: expected {key.type}, "
                    f"got {ty.succedent} under {ty.antecedents}")
            t = subst(t, key, val)
    return t


def is_linear(t: GroundTerm) -> bool:
    """True iff every implication binder binds exactly one occurrence."""
    def count(t: GroundTerm, v: Var) -> int:
        match t:
            case Var():
                return 1 if t == v else 0
            case ImplI(x, b):
                return 0 if x == v else count(b, v)
            case DisjE(x1, x2, s, u, w):
                n = count(s, v)
                n += 0 if x1 == v else count(u, v)
                n += 0 if x2 == v else count(w, v)
                return n
            case ExistsE(_, x, s, u):
                return count(s, v) + (0 if x == v else count(u, v))
            case _:
                return sum(count(c, v) for c in children(t))

    def ok(t: GroundTerm) -> bool:
        if isinstance(t, ImplI) and count(t.body, t.var) != 1:
            return False
        return all(ok(c) for c in children(t))
    return ok(t)
