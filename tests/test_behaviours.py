import importlib
import itertools
import random

import pytest

from test_designs import prune, random_design

from groundkit.designs import (
    DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode, atomic_bomb,
    contains_daimon, daimon, fid, negative, positive, skunk,
    subdesign_order, subsets, validate_design,
)
from groundkit.behaviours import (
    NotAMember, OutOfFuel, SizeLimitExceeded, UniverseBounds, behaviour,
    CandidateVerdict, _minimal, _test_run, classify_candidate, count_universe,
    enumerate_universe, free_incarnation, full_pool, incarnation_of, members,
    orthogonal_set,
)
from groundkit.interaction import (
    DEFAULT_FUEL, VERDICT, Converged, _parts, dual_bases, make_cutnet,
    normalize_closed, orthogonal, run_closed,
)

XI = (0,)
POS = Pitchfork(None, frozenset({XI}))
NEG = Pitchfork(XI, frozenset())

TINY = UniverseBounds(1, ((),), POS)
SMALL = UniverseBounds(2, ((), (0,)), POS)
FULL2 = UniverseBounds(2, full_pool(1), POS)


class TestEnumeration:
    def test_tiny_universe(self):
        designs = set(enumerate_universe(TINY))
        assert designs == {daimon(XI), fid(XI), atomic_bomb(XI)}

    def test_count_oracle_small(self):
        assert count_universe(SMALL) == 12
        assert len(enumerate_universe(SMALL)) == 12

    def test_count_oracle_full_pool(self):
        assert count_universe(FULL2) == 6726
        assert count_universe(FULL2.at(NEG)) == 240
        assert len(enumerate_universe(FULL2)) == 6726
        assert len(enumerate_universe(FULL2.at(NEG))) == 240

    def test_enumerated_designs_validate(self):
        for d in enumerate_universe(SMALL):
            assert validate_design(d) == []
        for d in enumerate_universe(SMALL.at(NEG)):
            assert validate_design(d) == []

    def test_no_duplicates(self):
        designs = enumerate_universe(FULL2)
        assert len(designs) == len(set(designs))

    def test_designs_die_with_the_universe(self):
        """Nothing the enumeration built outlives its result, without
        waiting for the cyclic collector."""
        import gc
        from groundkit.designs import Design
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(Design._interned)
            designs = enumerate_universe(FULL2)
            assert len(Design._interned) >= len(designs)
            del designs
            assert len(Design._interned) == before
        finally:
            if enabled:
                gc.enable()

    def test_count_is_the_enumeration_on_a_sweep(self):
        """Random small pools, depths and bases of both polarities, with a
        context of up to two addresses beside ξ; universes over 25,000
        designs are only counted."""
        rng, shapes = random.Random(7), set()
        for _ in range(100):
            pool = tuple(rng.sample(subsets(range(3)), rng.randint(1, 3)))
            ctx = frozenset((i,) for i in range(1, rng.randint(1, 3)))
            base = rng.choice([Pitchfork(None, ctx | {XI}),
                               Pitchfork(XI, ctx)])
            bounds = UniverseBounds(rng.choice((1, 2, 2, 3)), pool, base)
            if (n := count_universe(bounds)) <= 25_000:
                assert len(enumerate_universe(bounds)) == n
                if n > 10:
                    shapes.add((base.neg is None, len(ctx)))
        assert len(shapes) == 6

    def test_size_cap(self):
        capped = UniverseBounds(3, full_pool(1), POS, cap=1000)
        with pytest.raises(SizeLimitExceeded):
            enumerate_universe(capped)

    def test_over_cap_is_refused_before_any_design_is_built(self,
                                                            monkeypatch):
        import groundkit.behaviours as bh

        def built(*args):
            raise AssertionError("a design was built")

        monkeypatch.setattr(bh, "Design", built)
        stated = UniverseBounds(3, full_pool(1), NEG)
        assert count_universe(stated) == 5_432_882_874_153
        with pytest.raises(SizeLimitExceeded,
                           match="universe exceeds cap 1000000"):
            enumerate_universe(stated)


class TestOrthogonalSets:
    def test_bomb_orthogonal_is_single_responder(self):
        bounds = UniverseBounds(2, ((),), POS)
        orth = frozenset(orthogonal_set([atomic_bomb(XI)], bounds))
        assert orth == {negative(XI, {(): daimon()})}

    def test_skunk_orthogonal_is_daimon(self):
        orth = frozenset(orthogonal_set([skunk(XI)], SMALL.at(NEG)))
        assert orth == {daimon(XI)}

    def test_daimon_orthogonal_is_all_negatives(self):
        orth = frozenset(orthogonal_set([daimon(XI)], SMALL))
        universe = set(enumerate_universe(SMALL.at(NEG)))
        assert orth == universe
        assert skunk(XI).node in {d.node for d in orth}

    def test_antitonicity(self):
        e = [atomic_bomb(XI)]
        f = [atomic_bomb(XI), daimon(XI)]
        assert frozenset(orthogonal_set(f, SMALL)) \
            <= frozenset(orthogonal_set(e, SMALL))

    def test_default_fuel_decides_every_candidate(self):
        assert orthogonal_set([atomic_bomb(XI)], SMALL)
        assert members(behaviour_one()) == {atomic_bomb(XI), daimon(XI)}

    def test_fuel_exhaustion_raises(self):
        with pytest.raises(ValueError, match="fuel-exhausted"):
            orthogonal_set([atomic_bomb(XI)], SMALL, fuel=0)
        with pytest.raises(ValueError, match="fuel-exhausted"):
            members(behaviour_one(), fuel=0)


def biorthogonal(E) -> frozenset:
    """Bounded E^⊥⊥ on SMALL's base."""
    return frozenset(orthogonal_set(orthogonal_set(E, SMALL), SMALL.at(NEG)))


class TestBiorthogonal:
    def test_behaviour_one(self):
        closure = biorthogonal([atomic_bomb(XI)])
        assert closure == {atomic_bomb(XI), daimon(XI)}

    def test_behaviour_zero(self):
        closure = biorthogonal([daimon(XI)])
        assert closure == {daimon(XI)}

    def test_closure_inflationary(self):
        rng = random.Random(31)
        universe = enumerate_universe(SMALL)
        for _ in range(10):
            e = {d for d in universe if rng.random() < 0.3
                 and not isinstance(d.node, FidLeaf)}
            if not e:
                continue
            assert e <= biorthogonal(e) | {d for d in e}

    def test_triple_orthogonal_law(self):
        rng = random.Random(33)
        universe = [d for d in enumerate_universe(SMALL)
                    if not isinstance(d.node, FidLeaf)]
        for _ in range(8):
            e = [d for d in universe if rng.random() < 0.25]
            if not e:
                continue
            lhs = orthogonal_set(biorthogonal(e), SMALL)
            assert lhs == orthogonal_set(e, SMALL)


def behaviour_one(bounds=SMALL):
    return behaviour([atomic_bomb(XI)], bounds)


def behaviour_zero(bounds=SMALL):
    return behaviour([daimon(XI)], bounds)


def behaviour_top(bounds=SMALL):
    return behaviour([skunk(XI)], bounds.at(NEG))


class TestMembership:
    def test_one_members(self):
        b = behaviour_one()
        assert members(b) == {atomic_bomb(XI), daimon(XI)}

    def test_zero_members(self):
        assert members(behaviour_zero()) == {daimon(XI)}

    def test_top_members_are_all_negatives(self):
        b = behaviour_top()
        assert members(b) == set(enumerate_universe(SMALL.at(NEG)))

    def test_member_verdict(self):
        b = behaviour_one()
        assert _test_run(atomic_bomb(XI), b.cached_orthogonal,
                         DEFAULT_FUEL)[0] == "yes"
        assert _test_run(fid(XI), b.cached_orthogonal,
                         DEFAULT_FUEL)[0] == "no"


class TestIncarnation:
    def test_top_incarnations_are_skunk(self):
        b = behaviour_top()
        for d in members(b):
            inc = incarnation_of(d, b)
            assert inc.node == NegNode(XI, ())

    def test_bomb_material_in_one(self):
        b = behaviour_one()
        assert incarnation_of(atomic_bomb(XI), b) == atomic_bomb(XI)

    def test_daimon_material(self):
        assert incarnation_of(daimon(XI), behaviour_one()) == daimon(XI)
        assert incarnation_of(daimon(XI), behaviour_zero()) == daimon(XI)

    def test_not_a_member(self):
        with pytest.raises(NotAMember):
            incarnation_of(fid(XI), behaviour_one())

    def test_idempotence(self):
        b = behaviour_top()
        for d in members(b):
            inc = incarnation_of(d, b)
            assert incarnation_of(inc, b) == inc

    def test_minimality_exhaustive(self):
        """No strict subdesign of an incarnation stays orthogonal to all
        cached counter-designs (tiny bounds, checked exhaustively)."""
        from groundkit.interaction import orthogonal
        from groundkit.designs import subdesign_order
        b = behaviour_one()
        universe = enumerate_universe(SMALL)
        for d in members(b):
            inc = incarnation_of(d, b)
            for cand in universe:
                if cand == inc or not subdesign_order(cand, inc):
                    continue
                assert any(orthogonal(cand, e) != "yes"
                           for e in b.cached_orthogonal)


class TestClassification:
    def test_bomb_is_ground_in_one(self):
        v = classify_candidate(atomic_bomb(XI), behaviour_one())
        assert v.tag == "Ground"

    def test_daimon_pseudo_in_one_and_zero(self):
        for b in (behaviour_one(), behaviour_zero()):
            v = classify_candidate(daimon(XI), b)
            assert (v.tag, v.reason) == ("PseudoGround", "contains-daimon")

    def test_wrong_base_not_in_behaviour(self):
        v = classify_candidate(skunk(XI), behaviour_one())
        assert v.tag == "NotInBehaviour"

    def test_fid_not_in_behaviour(self):
        v = classify_candidate(fid(XI), behaviour_one())
        assert v.tag == "NotInBehaviour"

    def test_daimon_free_immaterial_member(self):
        # a negative member of ⊤ with an unvisited branch: in, †-free,
        # but not equal to its incarnation (the skunk)
        b = behaviour_top()
        n = negative(XI, {(): fid()})
        v = classify_candidate(n, b)
        assert (v.tag, v.reason) == ("PseudoGround", "not-material")

    def test_ground_wins_every_interaction(self):
        b = behaviour_one()
        d = atomic_bomb(XI)
        assert classify_candidate(d, b).tag == "Ground"
        assert not contains_daimon(d)
        for e in b.cached_orthogonal:
            out = normalize_closed(make_cutnet((d, e)))
            assert isinstance(out, Converged)
            # the closing daimon cannot come from d, which is †-free
            assert out.trace[-1][0] == "†"


class TestDualBase:
    def test_roundtrip(self):
        assert dual_bases(POS) == (NEG,)
        assert dual_bases(NEG) == (POS,)

    def test_rejects_wide_bases(self):
        with pytest.raises(ValueError):
            dual_bases(Pitchfork(None, frozenset({(0,), (1,)})))


class TestBaseAndFuelErrors:
    def test_member_verdict_checks_the_base(self):
        with pytest.raises(ValueError):
            incarnation_of(skunk(XI), behaviour_one())
        assert classify_candidate(skunk(XI), behaviour_one()) \
            == CandidateVerdict("NotInBehaviour", "base mismatch")

    def test_incarnation_out_of_fuel_is_not_a_non_member(self):
        with pytest.raises(ValueError, match="fuel-exhausted"):
            incarnation_of(atomic_bomb(XI), behaviour_one(), fuel=0)

    def test_generators_must_sit_on_the_base(self):
        with pytest.raises(ValueError):
            behaviour([skunk(XI)], SMALL)

    def test_empty_set_orthogonal_is_the_dual_universe(self):
        assert frozenset(orthogonal_set([], SMALL)) \
            == set(enumerate_universe(SMALL.at(NEG)))


class TestVerdictShortCircuit:
    def test_member_verdict_stops_at_first_no(self, monkeypatch):
        b = behaviour_one(FULL2)
        d = positive(XI, {0: skunk((0, 0))})
        verdicts = [orthogonal(d, e) for e in b.cached_orthogonal]
        assert "yes" in verdicts and "no" in verdicts
        calls = count_runs(monkeypatch)
        assert _test_run(d, b.cached_orthogonal, DEFAULT_FUEL)[0] == "no"
        assert len(calls) == verdicts.index("no") + 1

    def test_internal_error_propagates(self, monkeypatch):
        import groundkit.behaviours as bh
        b = behaviour_one()

        def broken(*args):
            raise RuntimeError("internal error")

        monkeypatch.setattr(bh, "run_closed", broken)
        with pytest.raises(RuntimeError):
            classify_candidate(atomic_bomb(XI), b)
        v = classify_candidate(skunk(XI), b)
        assert (v.tag, v.reason) == ("NotInBehaviour", "base mismatch")


def counter_test_universe(bounds):
    """Every counter-test of a design on bounds.base, in universe order
    (for pairs, the product order of the two universes)."""
    universes = [enumerate_universe(bounds.at(p))
                 for p in dual_bases(bounds.base)]
    return universes[0] if len(universes) == 1 \
        else tuple(itertools.product(*universes))


def universe_order(b):
    """The counter-tests of b in the order their universe is enumerated."""
    cached = set(b.cached_orthogonal)
    return tuple(e for e in counter_test_universe(b.bounds) if e in cached)


def orthogonal_against_all(E, bounds, fuel=DEFAULT_FUEL):
    """E^⊥ in universe order with every counter-test run against every
    design of E: the reference for the orthogonal, which tries only the
    ⊑-minimal designs.  OutOfFuel if a counter-test is undecided."""
    out = []
    for e in counter_test_universe(bounds):
        verdicts = {VERDICT[run_closed(_parts(e) + (d,), fuel).reason]
                    for d in E}
        if "no" in verdicts:
            continue
        if "unknown" in verdicts:
            raise OutOfFuel(f"fuel-exhausted at {fuel}")
        out.append(e)
    return tuple(out)


def members_per_pair(b, fuel=DEFAULT_FUEL):
    """b's members in universe order, each design run against the
    counter-tests up to its first "no": the reference for members, whose
    runs share their prefixes.  OutOfFuel if a design fails no test and a
    test on it is undecided."""
    out = []
    for d in enumerate_universe(b.bounds):
        verdicts = set()
        for e in b.cached_orthogonal:
            verdicts.add(VERDICT[run_closed((d,) + _parts(e), fuel).reason])
            if "no" in verdicts:
                break
        if "no" in verdicts:
            continue
        if "unknown" in verdicts:
            raise OutOfFuel(f"fuel-exhausted at {fuel}")
        out.append(d)
    return tuple(out)


def free_incarnation_by_classification(b, fuel=DEFAULT_FUEL):
    """The designs of b's universe that classify Ground, one classification
    each: the reference for free_incarnation, which keeps the †-free
    ⊑-minimal members.  OutOfFuel if a classification is undecided."""
    out = set()
    for d in enumerate_universe(b.bounds):
        tag = classify_candidate(d, b, fuel).tag
        if tag == "Unknown":
            raise OutOfFuel(f"fuel-exhausted at {fuel}")
        if tag == "Ground":
            out.add(d)
    return frozenset(out)


def outcome(f, *args):
    """f(*args), or OutOfFuel if it raised that."""
    try:
        return f(*args)
    except OutOfFuel:
        return OutOfFuel


def count_runs(monkeypatch):
    """The design in control and the listeners at the start of every
    interaction-machine run, wherever interaction, behaviours and translate
    look `run` up."""
    modules = [importlib.import_module(f"groundkit.{name}")
               for name in ("interaction", "behaviours", "translate")]
    calls = []
    real = modules[0].run

    def counted(current, env, *args, **kwargs):
        calls.append((current, tuple(env.values())))
        return real(current, env, *args, **kwargs)

    for m in modules:
        monkeypatch.setattr(m, "run", counted)
    return calls


def test_counter_tests_are_in_universe_order():
    b = behaviour_one(FULL2)
    assert isinstance(b.cached_orthogonal, tuple)
    assert len(b.cached_orthogonal) == len(set(b.cached_orthogonal)) == 80
    assert b.cached_orthogonal == universe_order(b)


class TestClassifySinglePass:
    def test_member_runs_each_counter_test_once(self, monkeypatch):
        b = behaviour_one(FULL2)
        assert len(b.cached_orthogonal) == 80
        calls = count_runs(monkeypatch)
        assert classify_candidate(atomic_bomb(XI), b).tag == "Ground"
        assert len(calls) == 80

    def test_non_member_stops_at_first_no(self, monkeypatch):
        b = behaviour_one(FULL2)
        d = positive(XI, {0: skunk((0, 0))})
        verdicts = [orthogonal(d, e) for e in b.cached_orthogonal]
        calls = count_runs(monkeypatch)
        assert classify_candidate(d, b).tag == "NotInBehaviour"
        assert len(calls) == verdicts.index("no") + 1
        calls.clear()
        with pytest.raises(NotAMember):
            incarnation_of(d, b)
        assert len(calls) == verdicts.index("no") + 1


def reference_minimal(E) -> list:
    """The ⊑-minimal designs of E, in the order they first appear: each
    design compared with the minimal ones kept so far."""
    kept = []
    for d in E:
        if not any(subdesign_order(m, d) for m in kept):
            kept = [m for m in kept if not subdesign_order(d, m)] + [d]
    return kept


class TestMinimalDesigns:
    """E^⊥ = (min E)^⊥: the orthogonal tries only the ⊑-minimal designs of
    E, with the same counter-tests, order and OutOfFuel as trying all."""

    @pytest.mark.parametrize("bounds", [SMALL, FULL2, SMALL.at(NEG),
                                        FULL2.at(NEG)])
    def test_is_the_pairwise_reference(self, bounds):
        """Random subsets of a universe and their prunings, in random
        order, with the least design (Fid, or ξ⊢'s branchless node) at a
        random place or without it."""
        rng = random.Random(len(bounds.pool) + (bounds.base.neg is None))
        least = fid(XI) if bounds.base.neg is None else negative(XI)
        universe = enumerate_universe(bounds)
        assert least in universe
        kinds = set()
        for _ in range(300):
            E = rng.sample(universe, rng.randint(0, min(8, len(universe))))
            E = [d for d in E + [prune(rng, d) for d in E] if d is not least]
            rng.shuffle(E)
            if rng.random() < 0.5:
                E.insert(rng.randint(0, len(E)), least)
            kinds.add((least in E, len(reference_minimal(E)) > 1))
            assert _minimal(E) == reference_minimal(E)
        assert kinds == {(True, False), (False, False), (False, True)}

    @pytest.mark.parametrize("fuel", [0, 1, 2, DEFAULT_FUEL])
    @pytest.mark.parametrize("bounds", [FULL2, FULL2.at(NEG)],
                             ids=["positive", "negative"])
    def test_agrees_with_all_of_E(self, bounds, fuel):
        rng = random.Random(fuel + (bounds.base.neg is None))
        universe = enumerate_universe(bounds)
        comparable = 0
        for _ in range(6):
            E = rng.sample(universe, rng.randint(1, 3))
            E += [prune(rng, d) for d in E]
            rng.shuffle(E)
            comparable += any(d1 is not d2 and subdesign_order(d1, d2)
                              for d1 in E for d2 in E)
            expected = outcome(orthogonal_against_all, E, bounds, fuel)
            got = outcome(lambda: behaviour(E, bounds, fuel)
                          .cached_orthogonal)
            assert got == expected
        assert comparable

    def test_a_pruning_is_tried_alone(self, monkeypatch):
        """d2 enters no run; d runs once up to its action (ξ, {0}), then
        once for each of the three branches {0} among the 240 negative
        designs (the fourth class lacks a branch {0} and needs no run)."""
        d = positive(XI, {0: skunk((0, 0))})
        d2 = positive(XI, {0: negative((0, 0), {(): daimon()})})
        assert d != d2 and subdesign_order(d, d2)
        expected = orthogonal_set([d], FULL2)
        calls = count_runs(monkeypatch)
        assert orthogonal_set([d2, d], FULL2) == expected
        assert all(d2 is not x and d2 not in env for x, env in calls)
        assert len({e.node.branch_map().get((0,))
                    for e in enumerate_universe(FULL2.at(NEG))}) == 4
        assert len(calls) == 4


class TestSharedPrefixes:
    """Verdicts decided once per distinct branch are those of one run per
    (design, counter-test): the same sets in the same order, and OutOfFuel
    exactly when a run per pair meets an undecided test."""

    BOUNDS = UniverseBounds(2, ((), (0,), (0, 1)), POS)

    @pytest.mark.parametrize("fuel", [0, 1, 2, DEFAULT_FUEL])
    @pytest.mark.parametrize("bounds", [BOUNDS, BOUNDS.at(NEG)],
                             ids=["positive", "negative"])
    def test_orthogonal_and_members(self, bounds, fuel):
        rng = random.Random(fuel * 2 + (bounds.base.neg is None))
        universe = enumerate_universe(bounds)
        decided = 0
        for _ in range(8):
            E = rng.sample(universe, rng.randint(1, 3))
            got = outcome(lambda: behaviour(E, bounds, fuel).cached_orthogonal)
            assert got == outcome(orthogonal_against_all, E, bounds, fuel)
            decided += got is not OutOfFuel
            b = behaviour(E, bounds)
            assert outcome(members, b, fuel) == outcome(
                lambda: frozenset(members_per_pair(b, fuel)))
        assert decided or fuel < 2

    def test_free_incarnation_at_low_fuel(self):
        seen = set()
        for fuel in (0, 1, 2):
            for b in itertools.islice(
                    TestFreeIncarnation().seeded_behaviours(), 0, None, 5):
                got = outcome(free_incarnation, b, fuel)
                assert got == outcome(free_incarnation_by_classification, b,
                                      fuel)
                seen.add(got is OutOfFuel)
        assert seen == {True, False}

    def test_a_design_lacking_the_branch_enters_no_run(self, monkeypatch):
        """The bomb acts with (ξ, ∅): a negative design without a branch ∅
        answers "no" without a run."""
        lacking = [e for e in enumerate_universe(FULL2.at(NEG))
                   if () not in e.node.branch_map()]
        assert len(lacking) == 80
        calls = count_runs(monkeypatch)
        orth = behaviour([atomic_bomb(XI)], FULL2).cached_orthogonal
        assert not any(e in env for _, env in calls for e in lacking)
        assert len(calls) == 3
        assert orth == orthogonal_against_all([atomic_bomb(XI)], FULL2)


class TestFreeIncarnation:
    """The †-free material members are the †-free ⊑-minimal members: members
    are upward-closed in ⊑, and |d| ⊑ d is a member."""

    POOLS = (((), (0,)), ((), (0,), (1,)), full_pool(1))

    def seeded_behaviours(self):
        rng = random.Random(17)
        for depth, pool, base in itertools.product((1, 2, 3), self.POOLS,
                                                    (POS, NEG)):
            bounds = UniverseBounds(depth, pool, base)
            dual = bounds.at(dual_bases(base)[0])
            if max(count_universe(bounds), count_universe(dual)) > 300:
                continue
            universe = enumerate_universe(bounds)
            yield behaviour([], bounds)
            for size in (1,) * 7 + (2,) * 7:
                yield behaviour(rng.sample(universe, size), bounds)

    def test_agrees_with_classification(self):
        seen = {"behaviours": 0, "non-empty": 0, "negative": 0, "deep": 0}
        for b in self.seeded_behaviours():
            got = outcome(free_incarnation, b)
            assert got == outcome(free_incarnation_by_classification, b)
            seen["behaviours"] += 1
            seen["non-empty"] += bool(got)
            seen["negative"] += b.base.neg is not None
            seen["deep"] += b.bounds.max_depth == 3
        assert seen == {"behaviours": 180, "non-empty": 130, "negative": 90,
                        "deep": 30}

    def test_one_zero_top(self):
        assert free_incarnation(behaviour_one()) == {atomic_bomb(XI)}
        assert free_incarnation(behaviour_zero()) == frozenset()
        assert free_incarnation(behaviour_top()) == {skunk(XI)}


@pytest.mark.parametrize("bounds", [
    SMALL, SMALL.at(NEG), TINY, FULL2.at(NEG),
    UniverseBounds(2, ((), (0,), (0, 1)), POS),
    UniverseBounds(3, ((), (0,)), Pitchfork(XI, frozenset({(1,)}))),
])
def test_a_cap_equal_to_the_count_is_enough(bounds):
    """Only the universe counts against the cap, not the sub-designs built
    on the way; one design fewer is refused."""
    n = count_universe(bounds)
    assert len(enumerate_universe(UniverseBounds(
        bounds.max_depth, bounds.pool, bounds.base, cap=n))) == n
    with pytest.raises(SizeLimitExceeded):
        enumerate_universe(UniverseBounds(bounds.max_depth, bounds.pool,
                                          bounds.base, cap=n - 1))
