import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    A, AA, identity_term, open_variant, pingpong_env, pingpong_term,
    worked_term,
)
from termgen import corpus
from termgen import TYPES, random_term, random_type
from typecheck_oracle import oracle_typecheck

from groundkit import terms as tm
from groundkit.formulas import (
    Absurd, Atom, AtomicDerivation, AtomicRule, Conj, Disj, Forall, IConst,
    Impl,
)


class TestTypechecking:
    def test_identity(self):
        ty = tm.typecheck(identity_term())
        assert ty.antecedents == () and ty.succedent == AA

    def test_worked_term(self):
        ty = tm.typecheck(worked_term())
        assert ty.antecedents == () and ty.succedent == AA

    def test_open_variant(self):
        ty = tm.typecheck(open_variant())
        assert ty.antecedents == (AA,) and ty.succedent == AA

    def test_argument_mismatch(self):
        bad = tm.ImplE(identity_term(), tm.Const("b", Atom("B")))
        with pytest.raises(tm.GroundTypeError):
            tm.typecheck(bad)

    def test_case_arms_must_agree(self):
        d = Disj(A, A)
        x1, x2 = tm.Var("x1", A), tm.Var("x2", A)
        bad = tm.DisjE(x1, x2, tm.DisjI(1, d, tm.Const("a", A)),
                       x1, tm.ConjI(x2, x2))
        with pytest.raises(tm.GroundTypeError):
            tm.typecheck(bad)

    def test_ds_typing(self):
        d = Disj(A, Atom("B"))
        not_a = tm.ImplI(tm.Var("y", A), tm.Var("w", Absurd()))
        t = tm.DS(tm.Var("z", d), not_a)
        assert tm.typecheck(t).succedent == Atom("B")

    def test_ds_wrong_negation(self):
        d = Disj(A, Atom("B"))
        not_b = tm.ImplI(tm.Var("y", Atom("B")), tm.Var("w", Absurd()))
        with pytest.raises(tm.GroundTypeError):
            tm.typecheck(tm.DS(tm.Var("z", d), not_b))

    def test_eigenvariable_escape(self):
        from groundkit.formulas import Exists, IVar
        exi = Exists("x", Atom("P", (IVar("x"),)))
        v = tm.Var("v", Atom("P", (IVar("x"),)))
        bad = tm.ExistsE("x", v, tm.Var("s", exi), v)
        with pytest.raises(tm.GroundTypeError):
            tm.typecheck(bad)


def mutated(rng: random.Random, t: tm.GroundTerm) -> tm.GroundTerm:
    """t with one subterm replaced by a term of a random type, a free
    variable (named like a variable of t, at a random type) or a
    metavariable."""
    path, node = [], t
    while (cs := tm.children(node)) and rng.random() < 0.7:
        path.append((node, cs, rng.randrange(len(cs))))
        node = cs[path[-1][2]]
    pick = rng.choice(["term", "open", "meta"])
    if pick == "term":
        new = random_term(rng, random_type(rng), 2)
    elif pick == "open":
        names = [v.name for v in tm.free_vars(node)] + ["w"]
        new = tm.Var(rng.choice(names), random_type(rng))
    else:
        new = tm.MetaVar("m")
    for parent, cs, k in reversed(path):
        new = tm.rebuild(parent, cs[:k] + (new,) + cs[k + 1:])
    return new


def type_or_none(check, t):
    try:
        ty = check(t)
    except tm.GroundTypeError:
        return None
    return ty.antecedents, ty.succedent, ty.free_individual_vars


class TestTypecheckOracle:
    def test_agrees_with_the_recursive_typechecker(self):
        """The same verdict on every term, and the same type and
        antecedents wherever the term is typed: random terms, three in
        four given one to three faults or free variables."""
        rng = random.Random(11)
        ill = 0
        for _ in range(4000):
            t = random_term(rng, random_type(rng), 4)
            if rng.random() < 0.75:
                for _ in range(rng.randint(1, 3)):
                    t = mutated(rng, t)
            want = type_or_none(oracle_typecheck, t)
            assert type_or_none(tm.typecheck, t) == want
            ill += want is None
        assert 1000 < ill < 3000


class TestReduction:
    def test_worked_two_steps(self):
        out = tm.normalize(worked_term())
        assert isinstance(out, tm.Canonical)
        assert out.term == identity_term()
        assert [name for _, name in out.trace] == ["impl-e", "disj-e"]

    def test_beta(self):
        t = tm.ImplE(identity_term(), tm.Const("a", A))
        assert tm.reduce_step_at(t)[0] == tm.Const("a", A)

    def test_canonical_has_no_step(self):
        t = tm.ConjI(tm.Const("a", A), tm.Const("b", Atom("B")))
        assert tm.reduce_step_at(t) is None

    def test_projection(self):
        pair = tm.ConjI(tm.Const("a", A), tm.Const("b", Atom("B")))
        hit = tm.reduce_step_at(tm.ConjE(2, pair))
        assert hit[0] == tm.Const("b", Atom("B"))

    def test_forall_instantiation(self):
        from groundkit.formulas import IVar
        body = tm.Const("c", Atom("P"))
        t = tm.ForallE(IConst("a"), tm.ForallI("x", body))
        assert tm.reduce_step_at(t)[0] == body


class TestDS:
    dAB = Disj(A, Atom("B"))
    not_a = tm.ImplI(tm.Var("y", A),
                     tm.ImplE(tm.Var("n", Impl(A, Absurd())),
                              tm.Var("y", A)))

    def test_second_injection(self):
        b = tm.Const("b", Atom("B"))
        t = tm.DS(tm.DisjI(2, self.dAB, b), self.not_a)
        out = tm.normalize(t)
        assert isinstance(out, tm.Canonical) and out.term == b
        assert out.trace[0][1] == "ds-2"

    def test_first_injection_explodes(self):
        a = tm.Const("a", A)
        t = tm.DS(tm.DisjI(1, self.dAB, a), self.not_a)
        stepped, _, name = tm.reduce_step_at(t)
        assert name == "ds-1"
        assert isinstance(stepped, tm.Exploder)
        assert stepped.target == Atom("B")
        # the negation is applied to the injected witness
        assert stepped.body == tm.ImplE(self.not_a, a)
        assert tm.typecheck(stepped).succedent == Atom("B")

    def test_stuck_on_non_injection_head(self):
        t = tm.DS(tm.Var("z", self.dAB), self.not_a)
        out = tm.normalize(t)
        assert isinstance(out, tm.Stuck)


class TestLoops:
    def test_pingpong(self):
        env = pingpong_env()
        out = tm.normalize(pingpong_term(), env)
        assert isinstance(out, tm.Loop)
        assert len(out.trace) <= 4
        assert out.cycle[0] == out.cycle[-1]

    def test_loop_soundness(self):
        env = pingpong_env()
        out = tm.normalize(pingpong_term(), env)
        for prev, nxt in zip(out.cycle, out.cycle[1:]):
            assert tm.reduce_step_at(prev, env)[0] == nxt


class TestObserve:
    @pytest.mark.parametrize("term, env", [
        (worked_term(), tm.GroundEnv()),
        (pingpong_term(), pingpong_env()),
    ], ids=["worked", "pingpong"])
    def test_hook_sees_each_step_of_reduce_step(self, term, env):
        seen = []
        out = tm.normalize(term, env,
                           observe=lambda *step: seen.append(step))
        assert [(pos, rule) for pos, rule, _ in seen] == list(out.trace)
        current = term
        for pos, rule, t in seen:
            assert tm.reduce_step_at(current, env) == (t, pos, rule)
            current = t
        last = out.term if isinstance(out, tm.Canonical) else out.cycle[-1]
        assert seen and current == last


class TestProperties:
    TERMS = corpus(seed=7, size=300)

    def test_subject_reduction(self):
        for t in self.TERMS:
            ty = tm.typecheck(t)
            hit = tm.reduce_step_at(t)
            while hit is not None:
                assert tm.typecheck(hit[0]) == ty
                prev, hit = hit[0], tm.reduce_step_at(hit[0])
                if tm.is_primitive_head(prev):
                    break

    def test_determinism(self):
        for t in self.TERMS[:100]:
            assert tm.normalize(t) == tm.normalize(t)

    def test_canonical_stability(self):
        for t in self.TERMS[:150]:
            out = tm.normalize(t)
            assert isinstance(out, tm.Canonical)
            assert tm.is_primitive_head(out.term)
            again = tm.normalize(out.term)
            assert again == tm.Canonical(out.term, ())


class TestInterning:
    def test_equal_terms_are_one_object(self):
        a, x = tm.Const("a", A), tm.Var("x", A)
        assert tm.ImplE(a, x) is tm.ImplE(a, x)
        assert tm.Var("x", Atom("A")) is x       # formulas compare by value
        assert tm.ConjI(a, x) is not tm.ImplE(a, x)

    def test_hash_is_structural(self):
        x = tm.Var("x", A)
        assert hash(x) == hash(("x", A))
        assert hash(tm.ImplI(x, x)) == hash((x, x))

    def test_deep_term_hash_and_equality(self):
        t = u = tm.Const("a", A)
        for i in range(10_000):
            x = tm.Var(f"x{i}", A)
            t, u = tm.ImplE(tm.ImplI(x, x), t), tm.ImplE(tm.ImplI(x, x), u)
        assert t == u and hash(t) == hash(u) and len({t, u}) == 1
        assert tm.free_vars(t) == frozenset() and tm.is_closed_term(t)

    def test_table_holds_terms_weakly(self):
        c = tm.Const("unheld", A)
        ref = weakref.ref(tm.ConjE(1, c))
        assert ref() is None
        assert (1, c) not in tm.ConjE._interned


class TestSubstitutionLaw:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_free_vars_of_subst(self, seed):
        """fv(t[x := u]) = (fv(t) - {x}) | (fv(u) if x is free in t),
        with u's free variables named like binders of t to force renaming."""
        rng = random.Random(seed)
        scope = tuple(tm.Var(f"s{k}", ty) for k, ty in enumerate(TYPES))
        t = random_term(rng, rng.choice(TYPES), 3, scope)
        binders, todo = [], [t]
        while todo:
            node = todo.pop()
            todo += tm.children(node)
            if isinstance(node, tm.ImplI):
                binders.append(node.var)
        x = rng.choice(scope)
        u = random_term(rng, x.type, 2, tuple(binders) + scope[:2])
        want = tm.free_vars(t) - {x}
        if x in tm.free_vars(t):
            want |= tm.free_vars(u)
        assert tm.free_vars(tm.subst(t, x, u)) == want


# --- capture avoidance, checked against a nameless (de Bruijn) oracle ------


def debruijn(t: tm.GroundTerm, stack=()):
    """Nameless skeleton: bound variables as indices, free ones by name."""
    match t:
        case tm.Var():
            for i, v in enumerate(reversed(stack)):
                if v == t:
                    return ("b", i)
            return ("f", t.name, repr(t.type))
        case tm.ImplI(x, b):
            return ("impl-i", debruijn(b, stack + (x,)))
        case tm.DisjE(x1, x2, s, u, v):
            return ("disj-e", debruijn(s, stack),
                    debruijn(u, stack + (x1,)), debruijn(v, stack + (x2,)))
        case tm.ExistsE(iv, x, s, u):
            return ("exists-e", iv, debruijn(s, stack),
                    debruijn(u, stack + (x,)))
        case _:
            shell = tm.rebuild(t, tuple(tm.MetaVar("·")
                                        for _ in tm.children(t)))
            return (repr(shell),) + tuple(debruijn(c, stack)
                                          for c in tm.children(t))


class TestSubstitution:
    def test_capture_is_avoided(self):
        # body λx. y with y := x (a free variable named like the binder)
        x, y = tm.Var("x", A), tm.Var("y", A)
        t = tm.ImplI(x, tm.ConjI(x, y))
        result = tm.subst(t, y, x)
        # naive substitution would produce λx.(x, x); the binder must rename
        expected = tm.ImplI(tm.Var("z", A), tm.ConjI(tm.Var("z", A), x))
        assert debruijn(result) == debruijn(expected)
        assert x in tm.free_vars(result)

    def test_subst_recovers_worked_term(self):
        t = tm.subst(open_variant(), tm.Var("xi3", AA), identity_term())
        assert t == worked_term()

    def test_alpha_oracle_on_reduction(self):
        # reducing a redex whose argument shares a binder name must not
        # change the nameless skeleton versus a pre-renamed copy
        x, z = tm.Var("x", A), tm.Var("z", A)
        f = tm.ImplI(x, tm.ImplI(z, tm.ConjI(x, z)))
        arg_with_clash = tm.ImplE(tm.ImplI(z, z), tm.Const("a", A))
        t1 = tm.ImplE(f, arg_with_clash)
        out = tm.normalize(t1)
        assert isinstance(out, tm.Canonical)
        assert tm.typecheck(out.term).succedent == Impl(A, Conj(A, A))


class TestGroundhood:
    def test_registered_constant(self):
        P = Atom("P")
        rule = AtomicRule((), P)
        env = tm.GroundEnv()
        env.base = type(env.base)(frozenset(), frozenset({("P", 0)}),
                                  (rule,))
        env.derivations["c"] = AtomicDerivation(P, rule)
        assert tm.denotes_ground(tm.Const("c", P), env).tag == "yes"

    def test_unregistered_constant(self):
        assert tm.denotes_ground(tm.Const("c", Atom("P"))).tag == "no"

    def test_absurdity_never_grounded(self):
        t = tm.ImplE(tm.ImplI(tm.Var("x", Absurd()), tm.Var("x", Absurd())),
                     tm.Const("w", Absurd()))
        v = tm.denotes_ground(t)
        assert v.tag == "no"

    def test_worked_term_structural_yes(self):
        assert tm.denotes_ground(worked_term()).tag == "yes"

    def test_open_term_rejected(self):
        with pytest.raises(tm.GroundTypeError):
            tm.denotes_ground(open_variant())


class TestLinearity:
    def test_identity_linear(self):
        assert tm.is_linear(identity_term())

    def test_duplicator_not_linear(self):
        x = tm.Var("x", A)
        assert not tm.is_linear(tm.ImplI(x, tm.ConjI(x, x)))

    def test_dropper_not_linear(self):
        x = tm.Var("x", A)
        assert not tm.is_linear(tm.ImplI(x, tm.Const("a", A)))

    def test_nested(self):
        x, y = tm.Var("x", A), tm.Var("y", Atom("B"))
        assert tm.is_linear(tm.ImplI(x, tm.ImplI(y, tm.ConjI(x, y))))


class TestFuel:
    @staticmethod
    def identity_chain(n):
        t = tm.Const("a", A)
        for i in range(n):
            x = tm.Var(f"x{i}", A)
            t = tm.ImplE(tm.ImplI(x, x), t)
        return t

    def test_steps_needed_equal_fuel(self):
        out = tm.normalize(self.identity_chain(3), fuel=3)
        assert isinstance(out, tm.Canonical)
        assert len(out.trace) == 3

    def test_one_step_short(self):
        out = tm.normalize(self.identity_chain(3), fuel=2)
        assert isinstance(out, tm.FuelExhausted)
        assert len(out.trace) == 2
        assert out.term == self.identity_chain(1)
