"""Recursive reference for typechecking.

Types a term by recursion on its structure, one case per constructor,
checking the children in field order; used only to cross-check
`terms.typecheck`, which keeps its own stack.
"""

from groundkit.formulas import (
    Absurd, Atom, Conj, Disj, Exists, Forall, Formula, IVar, Impl, free_ivars,
    subst_ivar,
)
from groundkit.terms import (
    DS, Const, ConjE, ConjI, DisjE, DisjI, ExistsE, ExistsI, Exploder,
    ForallE, ForallI, GroundEnv, GroundTerm, GroundType, GroundTypeError,
    ImplE, ImplI, MetaVar, UserOp, Var, term_free_ivars,
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
