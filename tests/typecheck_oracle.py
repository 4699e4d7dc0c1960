"""Recursive reference for typechecking and free individual variables.

Types a term by recursion on its structure, one case per constructor,
checking the children in field order, and collects its free individual
variables the same way; used only to cross-check `terms.typecheck` and
`terms.term_free_ivars`, which keep their own stack and cache.
"""

from groundkit.formulas import (
    Absurd, Atom, Conj, Disj, Exists, Forall, Formula, IVar, Impl, free_ivars,
    subst_ivar,
)
from groundkit.terms import (
    DS, Const, ConjE, ConjI, DisjE, DisjI, ExistsE, ExistsI, Exploder,
    ForallE, ForallI, GroundEnv, GroundTerm, GroundType, GroundTypeError,
    ImplE, ImplI, MetaVar, UserOp, Var,
)


def oracle_typecheck(t: GroundTerm, env: GroundEnv | None = None) -> GroundType:
    """Derive the unique type of a term; free variables become antecedents."""
    env = env or GroundEnv()
    antecedents: list[Var] = []

    def note_free(v: Var):
        if v not in antecedents:
            antecedents.append(v)

    def tc(t: GroundTerm, bound: frozenset[Var]) -> Formula:
        match t:
            case MetaVar():
                raise GroundTypeError("metavariable outside an equation pattern")
            case Var():
                if t not in bound:
                    if any(b.name == t.name and b != t for b in bound):
                        raise GroundTypeError(
                        f"variable {t.name} shadowed at a different type")
                    note_free(t)
                return t.type
            case Const(name, ty):
                if not isinstance(ty, (Atom, Absurd)):
                    raise GroundTypeError(f"constant {name} must be atomic")
                return ty
            case ConjI(l, r):
                return Conj(tc(l, bound), tc(r, bound))
            case DisjI(side, d, b):
                if side not in (1, 2):
                    raise GroundTypeError(f"bad disjunct selector {side}")
                want = d.left if side == 1 else d.right
                got = tc(b, bound)
                if got != want:
                    raise GroundTypeError("disjunct mismatch")
                return d
            case ImplI(x, b):
                return Impl(x.type, tc(b, bound | {x}))
            case ForallI(x, b):
                return Forall(x, tc(b, bound))
            case ExistsI(w, e, b):
                want = subst_ivar(e.body, e.var, w)
                got = tc(b, bound)
                if got != want:
                    raise GroundTypeError("witness type mismatch")
                return e
            case Exploder(target, b):
                got = tc(b, bound)
                if not isinstance(got, Absurd):
                    raise GroundTypeError("explosion applied to a non-absurd term")
                return target
            case ConjE(side, b):
                got = tc(b, bound)
                if not isinstance(got, Conj):
                    raise GroundTypeError("projection from a non-conjunction")
                return got.left if side == 1 else got.right
            case DisjE(x1, x2, s, u, v):
                got = tc(s, bound)
                if not isinstance(got, Disj):
                    raise GroundTypeError("case split on a non-disjunction")
                if x1.type != got.left or x2.type != got.right:
                    raise GroundTypeError("case binder types do not match "
                                          "the disjuncts")
                tu = tc(u, bound | {x1})
                tv = tc(v, bound | {x2})
                if tu != tv:
                    raise GroundTypeError("case arms disagree")
                return tu
            case ImplE(f, a):
                tf = tc(f, bound)
                if not isinstance(tf, Impl):
                    raise GroundTypeError("application of a non-function")
                ta = tc(a, bound)
                if ta != tf.left:
                    raise GroundTypeError("argument type mismatch")
                return tf.right
            case ForallE(s, b):
                got = tc(b, bound)
                if not isinstance(got, Forall):
                    raise GroundTypeError("instantiation of a non-universal")
                return subst_ivar(got.body, got.var, s)
            case ExistsE(x, v, s, u):
                got = tc(s, bound)
                if not isinstance(got, Exists):
                    raise GroundTypeError("witness split on a non-existential")
                want = subst_ivar(got.body, got.var, IVar(x))
                if v.type != want:
                    raise GroundTypeError("witness binder type mismatch")
                res = tc(u, bound | {v})
                if x in free_ivars(res):
                    raise GroundTypeError(f"existential eigenvariable {x} "
                                          "escapes into the result type")
                return res
            case DS(d, n):
                td = tc(d, bound)
                if not isinstance(td, Disj):
                    raise GroundTypeError("disjunctive syllogism on a "
                                          "non-disjunction")
                tn = tc(n, bound)
                if tn != Impl(td.left, Absurd()):
                    raise GroundTypeError("second argument must negate the "
                                          "first disjunct")
                return td.right
            case UserOp(name, args):
                decl = env.ops.get(name)
                if decl is None:
                    raise GroundTypeError(f"unregistered operation {name}")
                if len(args) != len(decl.arg_types):
                    raise GroundTypeError(f"{name} expects "
                                          f"{len(decl.arg_types)} arguments")
                for a, want in zip(args, decl.arg_types):
                    got = tc(a, bound)
                    if got != want:
                        raise GroundTypeError(f"argument of {name} has the "
                                              "wrong type")
                return decl.result
        raise GroundTypeError(f"not a ground term: {t!r}")

    succ = tc(t, frozenset())
    return GroundType(tuple(v.type for v in antecedents), succ)


def oracle_free_ivars(t: GroundTerm) -> frozenset[str]:
    """The free individual variables of t, those of its type annotations
    included: ∀-introduction binds its variable in its body, and an
    ∃-elimination binds its eigenvariable in its binder's type and arm."""
    def witness(w) -> frozenset[str]:
        return frozenset({w.name}) if isinstance(w, IVar) else frozenset()

    match t:
        case Var(_, ty) | Const(_, ty):
            return free_ivars(ty)
        case MetaVar():
            return frozenset()
        case DisjI(_, d, b) | Exploder(d, b):
            return free_ivars(d) | oracle_free_ivars(b)
        case ImplI(x, b):
            return free_ivars(x.type) | oracle_free_ivars(b)
        case ForallI(x, b):
            return oracle_free_ivars(b) - {x}
        case ExistsI(w, e, b):
            return witness(w) | free_ivars(e) | oracle_free_ivars(b)
        case ConjE(_, b):
            return oracle_free_ivars(b)
        case DisjE(x1, x2, s, u, v):
            return (free_ivars(x1.type) | free_ivars(x2.type)
                    | oracle_free_ivars(s) | oracle_free_ivars(u)
                    | oracle_free_ivars(v))
        case ForallE(s, b):
            return witness(s) | oracle_free_ivars(b)
        case ExistsE(x, v, s, u):
            return oracle_free_ivars(s) | (
                (free_ivars(v.type) | oracle_free_ivars(u)) - {x})
        case ConjI(l, r) | ImplE(l, r) | DS(l, r):
            return oracle_free_ivars(l) | oracle_free_ivars(r)
        case UserOp(_, args):
            return frozenset().union(*map(oracle_free_ivars, args))
    raise TypeError(f"not a ground term: {t!r}")
