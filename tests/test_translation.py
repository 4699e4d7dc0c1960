import functools
import importlib
import pathlib
import random
import re
import types

import pytest

from translate_oracle import (
    behaviour_arrow, behaviour_at, defining_by_enumeration,
)
from test_behaviours import (
    count_runs, members_per_pair, orthogonal_against_all, outcome,
    universe_order,
)

import groundkit.translate as tr
from groundkit import terms as tm
from groundkit.formulas import Absurd, Atom, Impl
from groundkit.designs import (
    Pitchfork, atomic_bomb, build_fax, contains_daimon, daimon, delocate,
    fid, negative, positive, skunk, subdesign_order, validate_design,
)
from groundkit.behaviours import (
    Behaviour, OutOfFuel, UniverseBounds, _minimal, _test_run, behaviour,
    classify_candidate, enumerate_universe, full_pool, incarnation_of, members,
)
from groundkit.interaction import (
    DEFAULT_FUEL, dual_bases, make_cutnet, orthogonal,
)
from groundkit.translate import (
    MisboundAtom, TranslationEnv, TranslationError, arrow, check_translation,
    free_incarnation, normalize_open, translate,
)

P = Atom("P")
Q = Atom("Q")
BOUNDS = UniverseBounds(2, ((), (0,)), Pitchfork(None, frozenset({(9,)})))
HOME = (9,)


def env_with(formula, generator):
    b = behaviour([generator], BOUNDS.at(Pitchfork(None, frozenset({HOME}))))
    return TranslationEnv({formula: b}, BOUNDS, fax_arity=0)


def zero_env():
    return env_with(Absurd(), daimon(HOME))


def one_env():
    return env_with(P, atomic_bomb(HOME))


def by_enumeration(bA, bB, bounds=BOUNDS, fuel=DEFAULT_FUEL):
    """The defining set of A → B for A on ⊢α and B on ⊢β, filtered from the
    whole α⊢β universe."""
    return defining_by_enumeration(
        min(bA.base.pos), min(bB.base.pos), free_incarnation(bA, fuel),
        free_incarnation(bB, fuel), bounds, fuel)


def copycat(ty):
    x = tm.Var("x", ty)
    return tm.ImplI(x, x)


class TestNormalizeOpen:
    def test_fax_against_daimon_gives_daimon_at_codomain(self):
        fx = build_fax((0, 0), (0, 1), 2, 0)
        out = normalize_open(make_cutnet((daimon((0, 0)), fx)))
        assert out == daimon((0, 1))

    def test_fax_against_bomb_gives_bomb_at_codomain(self):
        fx = build_fax((0, 0), (0, 1), 2, 0)
        out = normalize_open(make_cutnet((atomic_bomb((0, 0)), fx)))
        assert out == atomic_bomb((0, 1))

    def test_main_thread_divergence_is_none(self):
        d = negative((0, 0), {(): fid((0, 1))}, extra=[(0, 1)])
        out = normalize_open(make_cutnet((atomic_bomb((0, 0)), d)))
        assert out is None

    def test_negative_base_rejected(self):
        with pytest.raises(TranslationError):
            normalize_open(make_cutnet((skunk((0,)),)))

    def test_open_results_validate(self):
        fx = build_fax((0, 0), (0, 1), 2, 1)
        out = normalize_open(make_cutnet((atomic_bomb((0, 0)), fx)))
        assert validate_design(out) == []


class TestFreeIncarnation:
    def test_zero_has_none(self):
        env = zero_env()
        assert free_incarnation(env.atoms[Absurd()]) == frozenset()

    def test_one_is_the_bomb(self):
        env = one_env()
        assert free_incarnation(env.atoms[P]) == {atomic_bomb(HOME)}


class TestTranslate:
    def test_copycat_is_fax(self):
        env = zero_env()
        d = translate(copycat(Absurd()), env, root=(0,))
        assert d == build_fax((0, 0), (0, 1), env.bounds.max_depth, 0)

    def test_constant_is_first_free_member(self):
        env = one_env()
        d = translate(tm.Const("c", P), env, root=(0,))
        assert d == atomic_bomb((0, 0))

    def test_application_of_copycat(self):
        env = one_env()
        t = tm.ImplE(copycat(P), tm.Const("c", P))
        d = translate(t, env, root=(0,))
        assert d == atomic_bomb((0, 1))

    def test_nonlinear_rejected(self):
        env = one_env()
        x = tm.Var("x", P)
        for bad in (tm.ImplI(x, tm.ConjI(x, x)),
                    tm.ImplI(x, tm.Const("c", P))):
            with pytest.raises(TranslationError) as e:
                translate(bad, env)
            assert e.value.kind in ("nonlinear-term",
                                    "unsupported-constructor")

    def test_nonlinear_corpus_rejected(self):
        env = one_env()
        x, y = tm.Var("x", P), tm.Var("y", Impl(P, P))
        duplicating = [
            tm.ImplI(x, tm.ImplE(tm.ImplI(tm.Var("z", P), x), x)),
            tm.ImplI(y, tm.ImplE(y, tm.ImplE(y, tm.Const("c", P)))),
        ]
        for bad in duplicating:
            assert not tm.is_linear(bad)
            with pytest.raises(TranslationError) as e:
                translate(bad, env)
            assert e.value.kind == "nonlinear-term"

    def test_outside_fragment_rejected(self):
        env = one_env()
        with pytest.raises(TranslationError) as e:
            translate(tm.ConjI(tm.Const("c", P), tm.Const("c", P)), env)
        assert e.value.kind == "unsupported-constructor"

    def test_open_term_rejected(self):
        env = one_env()
        with pytest.raises(TranslationError):
            translate(tm.Var("x", P), env)

    def test_diverged_application(self):
        # the behaviour for P generated by a sponge whose only †-free
        # material member opens ramification {0}; the copycat at arity 0
        # has no matching branch, so the application cut diverges
        env = env_with(P, positive_with_zero_branch())
        t = tm.ImplE(copycat(P), tm.Const("c", P))
        with pytest.raises(TranslationError) as e:
            translate(t, env, root=(0,))
        assert e.value.kind in ("diverged-application",
                                "unsupported-constructor")


def positive_with_zero_branch():
    from groundkit.designs import positive, child
    inner = negative((9, 0), {(): daimon()})
    return positive(HOME, {0: inner})


class TestArrow:
    def test_arrow_zero_zero_contains_fax(self):
        env = zero_env()
        bA = behaviour_at(env, Absurd(), (0, 0))
        bB = behaviour_at(env, Absurd(), (0, 1))
        ab = behaviour_arrow(bA, bB, BOUNDS)
        fx = build_fax((0, 0), (0, 1), 2, 0)
        # vacuous domain: the defining set is the whole bounded universe,
        # generated by its least design, the branchless node (the fax
        # itself is deeper than the bound, so it only enters via the
        # counter-test verdict)
        defining = by_enumeration(bA, bB)
        assert defining == list(enumerate_universe(BOUNDS.at(ab.base)))
        assert ab.generators == frozenset(_minimal(defining)) \
            == {negative((0, 0), extra=[(0, 1)])}
        assert fx not in defining
        assert _test_run(fx, ab.cached_orthogonal, DEFAULT_FUEL)[0] == "yes"

    def test_vacuous_domain_pairs_are_daimon_led(self):
        # fid is in the defining set, so the only pairs orthogonal to
        # everything are those whose left component ends the game at once
        env = zero_env()
        bA = behaviour_at(env, Absurd(), (0, 0))
        bB = behaviour_at(env, Absurd(), (0, 1))
        ab = behaviour_arrow(bA, bB, BOUNDS)
        assert ab.cached_orthogonal
        assert all(a == daimon((0, 0)) for a, _ in ab.cached_orthogonal)

    def test_fax_classification_protocol_in_zero_zero(self):
        """Member of 0 → 0, †-free, but not material under the literal
        incarnation: the documented verdict is PseudoGround(not-material),
        while its cut against 0's Daimon is a material member of 0."""
        env = zero_env()
        bA = behaviour_at(env, Absurd(), (0, 0))
        bB = behaviour_at(env, Absurd(), (0, 1))
        ab = behaviour_arrow(bA, bB, BOUNDS)
        fx = translate(copycat(Absurd()), env, root=(0,))
        v = classify_candidate(fx, ab)
        assert (v.tag, v.reason) == ("PseudoGround", "not-material")
        # ... and the interaction side of the protocol:
        out = normalize_open(make_cutnet((daimon((0, 0)), fx)))
        assert out == daimon((0, 1))
        v2 = classify_candidate(delocate(out, (0, 1), HOME),
                                env.atoms[Absurd()])
        assert (v2.tag, v2.reason) == ("PseudoGround", "contains-daimon")
        out = delocate(out, (0, 1), HOME)
        assert incarnation_of(out, env.atoms[Absurd()]) == out

    def test_arrow_one_one_maps_bomb_to_bomb(self):
        env = one_env()
        bA = behaviour_at(env, P, (0, 0))
        bB = behaviour_at(env, P, (0, 1))
        ab = behaviour_arrow(bA, bB, BOUNDS)
        fx = build_fax((0, 0), (0, 1), 1, 0)
        defining = by_enumeration(bA, bB)
        assert len(defining) == 5
        assert ab.generators == frozenset(_minimal(defining))
        assert len(ab.generators) == 1
        assert len(ab.cached_orthogonal) == 16
        assert _test_run(fx, ab.cached_orthogonal, DEFAULT_FUEL)[0] == "yes"
        out = normalize_open(make_cutnet((atomic_bomb((0, 0)), fx)))
        assert out in free_incarnation(bB)

    def test_pair_tests_are_in_product_order(self):
        env = one_env()
        ab = behaviour_arrow(behaviour_at(env, P, (0, 0)),
                             behaviour_at(env, P, (0, 1)), BOUNDS)
        assert isinstance(ab.cached_orthogonal, tuple)
        assert len(ab.cached_orthogonal) == 16
        assert ab.cached_orthogonal == universe_order(ab)

    def test_pair_orthogonality(self):
        fx = build_fax((0, 0), (0, 1), 1, 0)
        a = atomic_bomb((0, 0))
        b = negative((0, 1), {(): daimon()})
        assert orthogonal(fx, (a, b)) == "yes"
        assert orthogonal(fx, (a, skunk((0, 1)))) == "no"


class TestEmptyDefiningSet:
    """1 → 0: the bomb of 1 has no image among the †-free material members
    of 0 (there are none), so no design is in the defining set and the
    arrow's orthogonal is every pair."""

    def arrow_one_zero(self):
        home = BOUNDS.at(Pitchfork(None, frozenset({HOME})))
        env = TranslationEnv({P: behaviour([atomic_bomb(HOME)], home),
                              Absurd(): behaviour([daimon(HOME)], home)},
                             BOUNDS, fax_arity=0)
        return behaviour_arrow(behaviour_at(env, P, (0, 0)),
                               behaviour_at(env, Absurd(), (0, 1)), BOUNDS)

    def test_counts(self):
        ab = self.arrow_one_zero()
        assert ab.base == Pitchfork((0, 0), frozenset({(0, 1)}))
        assert len(ab.generators) == 0
        assert len(ab.cached_orthogonal) == 144

    def test_no_member(self):
        from groundkit.behaviours import enumerate_universe, members
        ab = self.arrow_one_zero()
        assert len(enumerate_universe(ab.bounds)) == 20
        assert members(ab) == frozenset()

    def test_fax_not_in_behaviour(self):
        v = classify_candidate(build_fax((0, 0), (0, 1), 2, 0),
                               self.arrow_one_zero())
        assert v.tag == "NotInBehaviour"


class TestCheckTranslation:
    def test_atomic_result_is_ground(self):
        env = one_env()
        t = tm.ImplE(copycat(P), tm.Const("c", P))
        d = translate(t, env, root=(0,))
        v = check_translation(t, d, env, root=(0,))
        assert v.tag == "Ground"

    def test_daimon_is_pseudo(self):
        env = one_env()
        t = tm.Const("c", P)
        v = check_translation(t, daimon((0, 0)), env, root=(0,))
        assert (v.tag, v.reason) == ("PseudoGround", "contains-daimon")

    def test_fid_fails(self):
        env = one_env()
        t = tm.Const("c", P)
        v = check_translation(t, fid((0, 0)), env, root=(0,))
        assert v.tag == "NotInBehaviour"

    def test_copycat_per_protocol(self):
        env = zero_env()
        t = copycat(Absurd())
        d = translate(t, env, root=(0,))
        v = check_translation(t, d, env, root=(0,))
        assert (v.tag, v.reason) == ("PseudoGround", "not-material")


class TestCheckTranslationOracle:
    """check_translation agrees with classifying against the behaviours
    that `behaviour_at` moves to the design's address."""

    ENVS = [(2, ((), (0,), (1,)), 0), (2, ((), (0,), (1,)), 1),
            (3, ((), (0,)), 0)]

    @staticmethod
    def env(depth, pool, arity):
        bounds = UniverseBounds(depth, pool, BOUNDS.base)
        home = bounds.at(Pitchfork(None, frozenset({HOME})))
        # the bench's 1 and 0, and a Q whose members are of every kind
        q = positive(HOME, {0: negative((9, 0))})
        return TranslationEnv({P: behaviour([atomic_bomb(HOME)], home),
                               Absurd(): behaviour([daimon(HOME)], home),
                               Q: behaviour([q], home)},
                              bounds, fax_arity=arity)

    @pytest.mark.parametrize("shape", ENVS)
    def test_atoms(self, shape):
        env = self.env(*shape)
        for xi in [HOME, (0, 0), (9, 1), (3, 2, 7), (0,)]:
            here = env.bounds.at(Pitchfork(None, frozenset({xi})))
            for ty in (P, Q, Absurd()):
                old = behaviour_at(env, ty, xi)
                for d in enumerate_universe(here):
                    assert check_translation(tm.Const("c", ty), d, env) == \
                        classify_candidate(d, old, env.fuel)

    @pytest.mark.parametrize("shape", ENVS)
    def test_copycats(self, shape):
        env = self.env(*shape)
        alpha, beta = (0, 0), (0, 1)
        rng = random.Random(5)
        for ty in (P, Q, Absurd()):
            t = copycat(ty)
            old = behaviour_arrow(behaviour_at(env, ty, alpha),
                                  behaviour_at(env, ty, beta), env.bounds,
                                  env.fuel)
            universe = enumerate_universe(old.bounds)
            for d in [translate(t, env, root=(0,)), *rng.sample(universe, 10)]:
                assert check_translation(t, d, env) == \
                    classify_candidate(d, old, env.fuel)

    @pytest.mark.parametrize("d", [fid((0, 0), (0, 1)), daimon(),
                                   negative((0, 0)), daimon((0, 0), HOME)])
    def test_designs_on_no_base_of_one_address(self, d):
        """Moving ⊢0.0, 9 home to ⊢9 would merge its two addresses."""
        env = self.env(*self.ENVS[0])
        for ty in (P, Q, Absurd()):
            v = check_translation(tm.Const("c", ty), d, env)
            assert (v.tag, v.reason) == ("NotInBehaviour", "base mismatch")


class TestDelocatedBehaviours:
    def test_behaviour_at_preserves_membership(self):
        env = one_env()
        b = behaviour_at(env, P, (5,))
        assert b.base == Pitchfork(None, frozenset({(5,)}))
        from groundkit.behaviours import members
        assert members(b) == {atomic_bomb((5,)), daimon((5,))}

    @pytest.mark.parametrize("pool", [BOUNDS.pool, full_pool(1)])
    def test_behaviour_at_is_the_behaviour_built_there(self, pool):
        """Delocation moves generators and counter-tests alike, in the
        order a behaviour built at the new address holds them."""
        rng = random.Random(3)
        bounds = UniverseBounds(2, pool, BOUNDS.base)
        home = bounds.at(Pitchfork(None, frozenset({HOME})))
        universe = enumerate_universe(home)
        for gens in [[], *([d] for d in universe[:12]),
                     *(rng.sample(universe, 2) for _ in range(6))]:
            env = TranslationEnv({P: behaviour(gens, home)}, bounds)
            for xi in [HOME, (0, 0), (9, 1), (3, 2, 7)]:
                here = bounds.at(Pitchfork(None, frozenset({xi})))
                assert behaviour_at(env, P, xi) == behaviour(
                    [delocate(g, HOME, xi) for g in gens], here)

    @pytest.mark.parametrize("pool", [BOUNDS.pool, ((), (0,), (1,))])
    def test_free_at_is_the_free_incarnation_there(self, pool):
        bounds = UniverseBounds(2, pool, BOUNDS.base)
        home = bounds.at(Pitchfork(None, frozenset({HOME})))
        for gens in [[], *([d] for d in enumerate_universe(home)[:20])]:
            env = TranslationEnv({P: behaviour(gens, home)}, bounds)
            # (0, 0) twice: before and after the env holds P's free set
            for xi in [(0, 0), HOME, (3, 2, 7), (0, 0)]:
                assert env.free_at(P, xi) == free_incarnation(
                    behaviour_at(env, P, xi))

    def test_free_incarnation_once_per_env(self, monkeypatch):
        """P → P and the constant of P share one free incarnation of P."""
        calls = []
        real = free_incarnation
        monkeypatch.setattr(tr, "free_incarnation",
                            lambda *args: calls.append(args) or real(*args))
        env = one_env()
        for t in (copycat(P), tm.Const("c", P)):
            d = translate(t, env, root=(0,))
            check_translation(t, d, env, root=(0,))
        assert calls == [(env.atoms[P], env.fuel)]

    @pytest.mark.parametrize("depth, pool", [(1, BOUNDS.pool),
                                             (2, ((),)), (3, BOUNDS.pool)])
    def test_an_atom_bounded_unlike_its_env_is_rejected(self, depth, pool):
        home = UniverseBounds(depth, pool, Pitchfork(None, frozenset({HOME})))
        with pytest.raises(MisboundAtom) as e:
            TranslationEnv({P: behaviour([daimon(HOME)], home)}, BOUNDS)
        assert e.value.args == (P,)


class TestOpenFuel:
    """The open normalizer counts action pairs over the whole call,
    output branches included."""

    def net(self):
        # one pair at α, then one thread per branch of the listener at
        # α.0: the fax's replies at 0.0 {0} and 0.0 {1} each take two pairs
        arg = positive((0, 0), {0: negative((0, 0, 0), {
            (0,): positive((0, 0, 0, 0)), (1,): positive((0, 0, 0, 1))})})
        return make_cutnet((arg, build_fax((0, 0), (0, 1), 3, 1)))

    def test_boundary(self):
        out = normalize_open(self.net(), 5)
        assert validate_design(out) == []
        with pytest.raises(TranslationError) as e:
            normalize_open(self.net(), 4)
        assert e.value.kind == "fuel-exhausted"

    def test_uncut_reply_needs_no_pair(self):
        fx = build_fax((0, 0), (0, 1), 2, 0)
        net = make_cutnet((atomic_bomb((0, 0)), fx))
        assert normalize_open(net, 1) == atomic_bomb((0, 1))
        with pytest.raises(TranslationError):
            normalize_open(net, 0)


class TestArrowShortCircuit:
    def test_member_verdict_stops_at_first_no(self, monkeypatch):
        env = one_env()
        ab = behaviour_arrow(behaviour_at(env, P, (0, 0)),
                             behaviour_at(env, P, (0, 1)), BOUNDS)
        d = negative((0, 0), extra=[(0, 1)])
        verdicts = [orthogonal(d, (a, b)) for a, b in ab.cached_orthogonal]
        assert "no" in verdicts and "yes" in verdicts
        calls = count_runs(monkeypatch)
        assert _test_run(d, ab.cached_orthogonal, DEFAULT_FUEL)[0] == "no"
        assert len(calls) == verdicts.index("no") + 1


class TestArrowMinimalDesigns:
    """An arrow's orthogonal, computed against the ⊑-minimal defining
    designs, is the pair product filtered against every defining design."""

    def arrows(self):
        zero, one = zero_env(), one_env()
        yield behaviour_arrow(behaviour_at(zero, Absurd(), (0, 0)),
                              behaviour_at(zero, Absurd(), (0, 1)), BOUNDS)
        yield behaviour_arrow(behaviour_at(one, P, (0, 0)),
                              behaviour_at(one, P, (0, 1)), BOUNDS)
        yield TestEmptyDefiningSet().arrow_one_zero()

    def test_agrees_with_every_defining_design(self):
        for ab in self.arrows():
            assert ab.cached_orthogonal == orthogonal_against_all(
                ab.generators, ab.bounds)

    def test_arrow_test_count(self, monkeypatch):
        """P → P: 13 machine runs for each free incarnation (12 candidates)
        and 17 for the normal forms of the bomb against the three branches
        of U(⊢β) (†, Ω, the bomb) and the orthogonal of the one minimal
        design, whose 144 pairs a run per pair would take.  Filtering the
        whole α⊢β universe took 44."""
        env = one_env()
        bA, bB = behaviour_at(env, P, (0, 0)), behaviour_at(env, P, (0, 1))
        calls = count_runs(monkeypatch)
        ab = behaviour_arrow(bA, bB, BOUNDS)
        assert len(calls) == 43
        assert ab.generators == frozenset(_minimal(by_enumeration(bA, bB)))
        assert len(ab.generators) == 1


class TestArrowSharedPrefixes:
    """Pair tests share their runs by their ⊢α half, and the verdicts are
    those of one run per (design, pair): the same tuples in product order,
    the same members, and OutOfFuel exactly when a run per pair meets an
    undecided test."""

    ALPHA, BETA = (0, 0), (0, 1)

    @pytest.mark.parametrize("fuel", [0, 1, 2, DEFAULT_FUEL])
    def test_orthogonal_and_members(self, fuel):
        rng = random.Random(fuel)
        decided = 0
        for ab in TestArrowMinimalDesigns().arrows():
            universe = enumerate_universe(ab.bounds)
            for E in [list(ab.generators),
                      *(rng.sample(universe, rng.randint(1, 3))
                        for _ in range(4))]:
                got = outcome(
                    lambda: behaviour(E, ab.bounds, fuel).cached_orthogonal)
                assert got == outcome(orthogonal_against_all, E, ab.bounds,
                                      fuel)
                decided += got is not OutOfFuel
            assert outcome(members, ab, fuel) == outcome(
                lambda: frozenset(members_per_pair(ab, fuel)))
        assert decided

    def test_a_prefix_out_of_fuel_and_a_missing_branch(self, monkeypatch):
        """d answers the bomb at α with the bomb at β.  At fuel 0 the run
        of {bomb, d} stops out of fuel before β, which decides every pair
        led by the bomb with no run of its own: one run per design on ⊢α.
        With fuel enough the bomb's run resumes once per branch ∅ of a
        design on β⊢ (†, Ω), and one without that branch enters no run."""
        bounds = BOUNDS.at(Pitchfork(self.ALPHA, frozenset({self.BETA})))
        d = negative(self.ALPHA, {(): atomic_bomb(self.BETA)})
        calls = count_runs(monkeypatch)
        assert outcome(lambda: behaviour([d], bounds, 0)) is OutOfFuel
        assert len(calls) == len(enumerate_universe(
            bounds.at(Pitchfork(None, frozenset({self.ALPHA}))))) == 12
        assert not any(e.base.neg == self.BETA for _, env in calls
                       for e in env)
        assert outcome(orthogonal_against_all, [d], bounds, 0) is OutOfFuel
        calls.clear()
        orth = behaviour([d], bounds).cached_orthogonal
        lacking = [b for b in enumerate_universe(
            bounds.at(Pitchfork(self.BETA, frozenset())))
            if () not in b.node.branch_map()]
        assert len(lacking) == 4
        assert not any(b in env for _, env in calls for b in lacking)
        assert len(calls) == 12 + 2
        assert orth == orthogonal_against_all([d], bounds)

    #: the bench envs' shapes: (depth, pool), the sizes of U(⊢α) and U(β⊢),
    #: and the machine runs of the copycat-atom arrow's orthogonal
    SHAPES = {"depth2-pool3": (2, ((), (0,), (1,)), 57, 48, 59),
              "depth3-pool2": (3, ((), (0,)), 15, 39, 17)}

    @staticmethod
    @functools.cache
    def copycat_arrow(shape):
        """The arrow P → P that `check_translation` builds for the copycat
        of the atom when P is the bomb's behaviour, at a bench env's shape."""
        depth, pool = TestArrowSharedPrefixes.SHAPES[shape][:2]
        bounds = UniverseBounds(depth, pool, BOUNDS.base)
        env = TranslationEnv({P: behaviour([atomic_bomb(HOME)], bounds.at(
            Pitchfork(None, frozenset({HOME}))))}, bounds)
        a, b = TestArrowSharedPrefixes.ALPHA, TestArrowSharedPrefixes.BETA
        return arrow(a, b, env.free_at(P, a), env.free_at(P, b), bounds,
                     DEFAULT_FUEL)

    @pytest.mark.parametrize("fuel", [0, 1, 2, DEFAULT_FUEL])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_bench_shapes(self, shape, fuel, monkeypatch):
        """At the bench's shapes the orthogonal is the product filtered by
        a run per (design, pair), OutOfFuel included: for the defining set,
        for two designs of which neither prunes the other (the rows the
        first one fails are not run again for the second), and for a
        random sample of designs."""
        ab = self.copycat_arrow(shape)
        sizes = self.SHAPES[shape][2:4]
        assert tuple(len(enumerate_universe(ab.bounds.at(p)))
                     for p in dual_bases(ab.bounds.base)) == sizes
        alpha, beta = self.ALPHA, self.BETA
        two = [negative(alpha, {(): atomic_bomb(beta)}),
               negative(alpha, {(0,): daimon(beta, (0, 0, 0))})]
        assert not any(subdesign_order(a, b) for a, b in (two, two[::-1]))
        rng = random.Random(f"{shape}:{fuel}")
        for E in [list(ab.generators), two,
                  rng.sample(enumerate_universe(ab.bounds), 3)]:
            got = outcome(
                lambda: behaviour(E, ab.bounds, fuel).cached_orthogonal)
            assert got == outcome(orthogonal_against_all, E, ab.bounds, fuel)
        calls = count_runs(monkeypatch)
        outcome(lambda: behaviour(two, ab.bounds, fuel))
        assert len(calls) < 2 * sizes[0]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_copycat_arrow_runs(self, shape, monkeypatch):
        """The copycat-atom arrow's orthogonal, over its defining set in
        universe order, takes one run per design on ⊢α and one per distinct
        branch resumed: 59 and 17 runs, a bound that may only go down."""
        ab = self.copycat_arrow(shape)
        defining = [d for d in enumerate_universe(ab.bounds)
                    if d in ab.generators]
        calls = count_runs(monkeypatch)
        assert behaviour(defining, ab.bounds).cached_orthogonal \
            == ab.cached_orthogonal
        assert len(calls) <= self.SHAPES[shape][4]

    def test_defining_set_agrees_with_validated_nets(self, monkeypatch):
        """The defining set, normalized once per (a, branch) and started
        from (a, d) directly, is the one each validated net {a, d} gives,
        and the arrow, built branch by branch, is generated by its
        ⊑-minimal designs."""
        alpha, beta = self.ALPHA, self.BETA
        cases = []
        for pool in (BOUNDS.pool, ((), (0,), (1,))):
            bounds = UniverseBounds(2, pool, BOUNDS.base)
            home = bounds.at(Pitchfork(None, frozenset({HOME})))
            for gA, gB in [(atomic_bomb(HOME), atomic_bomb(HOME)),
                           (atomic_bomb(HOME), daimon(HOME)),
                           (positive_with_zero_branch(), atomic_bomb(HOME))]:
                env = TranslationEnv({P: behaviour([gA], home),
                                      Absurd(): behaviour([gB], home)}, bounds)
                cases.append((behaviour_at(env, P, alpha),
                              behaviour_at(env, Absurd(), beta), bounds))
        expected = []
        for bA, bB, bounds in cases:
            dom, cod = free_incarnation(bA), free_incarnation(bB)
            expected.append([
                d for d in enumerate_universe(
                    bounds.at(Pitchfork(alpha, frozenset({beta}))))
                if all(normalize_open(make_cutnet((a, d))) in cod
                       for a in dom)])
        assert [by_enumeration(bA, bB, bounds)
                for bA, bB, bounds in cases] == expected
        monkeypatch.setattr(tr, "make_cutnet", None)
        assert [behaviour_arrow(bA, bB, bounds).generators
                for bA, bB, bounds in cases] == [
            frozenset(_minimal(e)) for e in expected]
        assert any(expected) and not all(expected)


class TestArrowAgainstTheFilter:
    """`arrow` builds the ⊑-minimal defining designs branch by branch; the
    filter of the whole α⊢β universe, `defining_by_enumeration`, is its
    reference.  For random atoms at depths 1 to 3, pools of two and three
    ramifications and fuel from 0 up, the arrow's orthogonal is the one its
    defining set generates, in the same order, or both refuse with the same
    kind; and its generators are that set's ⊑-minimal designs."""

    SHAPES = [(1, ((), (0,))), (1, ((), (0,), (1,))), (2, ((), (0,))),
              (2, ((), (0,), (1,))), (2, ((0,), (0, 1))), (3, ((), (0,)))]
    ALPHA, BETA = (0, 0), (0, 1)

    @staticmethod
    def refusal(f):
        """f(), or the kind of the refusal it raised."""
        try:
            return f()
        except TranslationError as e:
            return e.kind
        except OutOfFuel:
            return "OutOfFuel"

    def test_agrees_with_the_filter(self):
        """240 cases: 48 pairs of atoms, each generated by one or two
        †-free designs (B's with the bomb on a coin's throw, so that some
        designs send A into B), at five fuels."""
        alpha, beta = self.ALPHA, self.BETA
        rng, seen = random.Random(31), []
        while len(seen) < 240:
            depth, pool = self.SHAPES[len(seen) // 5 % len(self.SHAPES)]
            home = UniverseBounds(depth, pool, BOUNDS.base)
            universe = [d for d in enumerate_universe(home)
                        if not contains_daimon(d)]
            gA, gB = (rng.sample(universe, min(len(universe),
                                               rng.randint(1, 2)))
                      for _ in "AB")
            gB += [atomic_bomb(HOME)] * rng.randint(0, 1)
            free = [outcome(free_incarnation, behaviour(g, home))
                    for g in (gA, gB)]
            if OutOfFuel in free:
                continue
            dom, cod = (frozenset(delocate(d, HOME, xi) for d in f)
                        for f, xi in zip(free, (alpha, beta)))
            bounds = home.at(Pitchfork(alpha, frozenset({beta})))
            for fuel in (0, 1, 2, 3, DEFAULT_FUEL):
                got = self.refusal(
                    lambda: arrow(alpha, beta, dom, cod, home, fuel))
                reference = self.refusal(lambda: defining_by_enumeration(
                    alpha, beta, dom, cod, home, fuel))
                if isinstance(reference, list):
                    want = self.refusal(
                        lambda: behaviour(reference, bounds, fuel))
                    if isinstance(want, Behaviour):
                        assert got.generators == frozenset(
                            _minimal(reference))
                        seen.append(min(len(got.generators), 2))
                        got, want = (got.cached_orthogonal,
                                     want.cached_orthogonal)
                    reference = want
                assert got == reference
                if isinstance(got, str):
                    seen.append(got)
        # no generator, one, several, and each refusal
        assert set(seen) == {0, 1, 2, "fuel-exhausted", "OutOfFuel"}


class TestBenchTranslateWorkload:
    """The translate benchmark's own check passes on the program's answers
    at two seeds, all three envs included, and each copycat's
    classification is pinned per env (the check reads copycat-absurd's
    only)."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_check_passes(self, seed, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(
            str(pathlib.Path(__file__).parent.parent / "bench"))
        workloads = importlib.import_module("workloads")
        gk = types.SimpleNamespace(**{
            m: importlib.import_module(f"groundkit.{m}")
            for m in ("sexpr", "terms", "designs", "interaction",
                      "behaviours", "translate", "cli")})
        w = workloads.Translate(seed, tmp_path)
        w.write_files()
        shared = w.setup(gk)
        outputs = [op() for op in w.operations(gk, shared)]
        assert len(outputs) == 15
        assert w.check(gk, shared, outputs) == []
        copycats = {(k, t): re.findall(r"^classification: (.*)$", text, re.M)
                    for (k, t), (_, text) in zip(w.calls, outputs)
                    if t.startswith("copycat")}
        assert copycats == {
            (k, t): ["PseudoGround(not-material)"] for k in range(3)
            for t in ("copycat-atom", "copycat-absurd")}
