import random

import pytest

from groundkit.designs import (
    DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode, atomic_bomb,
    build_fax, child, contains_daimon, daimon, delocate, design_depth,
    disjoint, fid, format_address, merge_subdesigns, negative,
    negative_sponge, parse_address, positive, skunk, star, subdesign_order,
    subsets, subtrees, validate_design, validate_pitchfork,
)

XI = (0,)
XI2 = (1,)


class TestAddresses:
    def test_child_never_disjoint_from_parent(self):
        for a in [(), (0,), (3, 1)]:
            for i in range(3):
                assert not disjoint(a, child(a, i))

    def test_siblings_disjoint_iff_distinct(self):
        a = (2,)
        for i in range(3):
            for j in range(3):
                assert disjoint(child(a, i), child(a, j)) == (i != j)

    def test_star(self):
        assert star((0,), (1, 3)) == {(0, 1), (0, 3)}
        assert star((0,), ()) == frozenset()

    def test_format_parse_roundtrip(self):
        for a in [(), (0,), (0, 1, 2), (10, 0)]:
            assert parse_address(format_address(a)) == a
        assert format_address(()) == "ε"

    def test_subsets(self):
        assert set(subsets(range(2))) == {(), (0,), (1,), (0, 1)}


class TestPitchforks:
    def test_valid(self):
        assert validate_pitchfork(Pitchfork((0,), frozenset({(1,), (2,)}))) \
            == []

    def test_overlapping_addresses(self):
        assert validate_pitchfork(Pitchfork((0,), frozenset({(0, 1)})))

    def test_address_on_both_sides(self):
        assert validate_pitchfork(Pitchfork(XI, frozenset({XI, (1,)}))) == [
            "address 0 is on both sides"]

    def test_every_prefix_pair_in_order(self):
        p = Pitchfork((0,), frozenset({(0, 1), (0, 1, 2), (0, 2), (1,)}))
        assert validate_pitchfork(p) == [
            f"addresses {a} and {b} are not disjoint"
            for a, b in [("0", "0.1"), ("0", "0.1.2"), ("0", "0.2"),
                         ("0.1", "0.1.2")]]

    def test_polarity(self):
        assert Pitchfork(None, frozenset({XI})).polarity == "pos"
        assert Pitchfork(XI, frozenset()).polarity == "neg"


class TestValidation:
    def test_daimon_ok(self):
        assert validate_design(daimon(XI)) == []

    def test_atomic_bomb_ok(self):
        assert validate_design(atomic_bomb(XI)) == []

    def test_skunk_ok(self):
        assert validate_design(skunk(XI)) == []

    def test_sponge_ok(self):
        assert validate_design(negative_sponge(XI, [(), (0,), (0, 1)])) == []

    def test_wrong_child_address(self):
        # positive node at ξ whose premise sits at an unrelated address
        bad = Design(
            Pitchfork(None, frozenset({XI})),
            PosNode(XI, (0,), (Design(Pitchfork((5,), frozenset()),
                                      NegNode((5,), ())),)))
        problems = validate_design(bad)
        assert problems

    def test_focus_outside_base(self):
        bad = Design(Pitchfork(None, frozenset({XI})),
                     PosNode((7,), (), ()))
        assert validate_design(bad)

    def test_daimon_negative_base_rejected(self):
        bad = Design(Pitchfork(XI, frozenset()), DaimonLeaf())
        assert validate_design(bad)

    def test_fid_negative_base_rejected(self):
        bad = Design(Pitchfork(XI, frozenset()), FidLeaf())
        assert validate_design(bad)

    def test_context_distribution_must_be_disjoint(self):
        # the same context address handed to two premises
        extra = (9,)
        n1 = negative((0, 0), {(): daimon(extra)})
        n2 = negative((0, 1), {(): daimon(extra)})
        bad = Design(Pitchfork(None, frozenset({XI, extra})),
                     PosNode(XI, (0, 1), (n1, n2)))
        assert validate_design(bad)


class TestFax:
    def test_branch_count_arity_one(self):
        fx = build_fax(XI, XI2, 1, 1)
        assert validate_design(fx) == []
        assert len(fx.node.branches) == 4
        assert {k for k, _ in fx.node.branches} == \
            {(), (0,), (1,), (0, 1)}

    def test_empty_branch_is_atomic_bomb(self):
        fx = build_fax(XI, XI2, 1, 1)
        assert fx.node.branch_map()[()] == atomic_bomb(XI2)

    def test_base(self):
        fx = build_fax(XI, XI2, 3, 1)
        assert fx.base == Pitchfork(XI, frozenset({XI2}))
        assert validate_design(fx) == []

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            build_fax(XI, child(XI, 0), 1, 1)

    def test_prefix_coherence(self):
        def truncate(d: Design, k: int) -> Design:
            a = d.node.focus
            branches = {}
            for key, br in d.node.branches:
                b = br.node.focus
                if k == 0:
                    branches[key] = fid(b, *star(a, key))
                else:
                    branches[key] = positive(
                        b, {i: truncate(c, k - 1) for i, c in
                            zip(br.node.ramification, br.node.children)})
            return negative(a, branches)

        for depth in (1, 2, 3):
            deeper = build_fax(XI, XI2, depth + 1, 1)
            assert build_fax(XI, XI2, depth, 1) == truncate(deeper, depth)


def random_design(rng: random.Random, base: Pitchfork, depth: int,
                  pool=((), (0,), (1,), (0, 1))) -> Design:
    """Build an arbitrary valid design on `base` by the formation rules."""
    if base.neg is None:
        roll = rng.random()
        if depth <= 0 or roll < 0.25 or not base.pos:
            return daimon(*base.pos) if rng.random() < 0.5 \
                else fid(*base.pos)
        focus = rng.choice(sorted(base.pos))
        ram = rng.choice(pool)
        ctx = sorted(base.pos - {focus})
        buckets = {i: [] for i in ram}
        for a in ctx:
            slot = rng.choice(list(ram) + [None])
            if slot is not None:
                buckets[slot].append(a)
        kids = {i: random_design(
            rng, Pitchfork(child(focus, i), frozenset(buckets[i])),
            depth - 1, pool) for i in ram}
        return positive(focus, kids, extra=ctx)
    keys = [I for I in pool if rng.random() < 0.6]
    branches = {}
    for I in keys:
        branches[I] = random_design(
            rng, Pitchfork(None, base.pos | star(base.neg, I)),
            depth - 1, pool)
    return negative(base.neg, branches, extra=base.pos)


def prune(rng: random.Random, d: Design) -> Design:
    """A random subdesign: drop negative branches, stub positive subtrees."""
    match d.node:
        case PosNode(focus, ram, kids):
            if rng.random() < 0.3:
                return Design(d.base, FidLeaf())
            return Design(d.base, PosNode(
                focus, ram, tuple(prune(rng, c) for c in kids)))
        case NegNode(focus, branches):
            kept = tuple((k, prune(rng, b)) for k, b in branches
                         if rng.random() < 0.7)
            return Design(d.base, NegNode(focus, kept))
        case _:
            return d


class TestGeneratorValidatorAgreement:
    def test_random_designs_validate(self):
        rng = random.Random(11)
        for k in range(200):
            base = Pitchfork(None, frozenset({XI})) if k % 2 == 0 \
                else Pitchfork(XI, frozenset({(4,)}))
            d = random_design(rng, base, depth=4)
            assert validate_design(d) == [], (d, validate_design(d))

    def test_prunings_validate_and_order(self):
        rng = random.Random(13)
        for _ in range(120):
            d = random_design(rng, Pitchfork(XI, frozenset()), depth=3)
            p = prune(rng, d)
            assert validate_design(p) == []
            assert subdesign_order(p, d)


class TestValidationSkipsFaultyNodes:
    """A premise is checked only below a well-formed node: not below a
    malformed ramification, nor a branch on a negative pitchfork."""

    def test_branch_on_a_negative_pitchfork(self):
        inner = negative((0, 0), {(0,): daimon((5,), (5, 1))})
        d = Design(Pitchfork(XI, frozenset({(5,), (5, 1)})),
                   NegNode(XI, (((0,), inner),)))
        assert validate_design(d) == [
            "root: addresses 5 and 5.1 are not disjoint",
            "root·{0}: branch must be a positive pitchfork"]

    def test_malformed_ramification(self):
        bad = Design(Pitchfork(XI, frozenset({XI2})), NegNode(XI, ()))
        d = Design(Pitchfork(None, frozenset({XI})), PosNode(XI, (1, 0), (bad, bad)))
        assert validate_design(d) == ["root: malformed ramification"]

    def test_premise_lines_come_before_the_premise(self):
        bad = Design(Pitchfork(XI, frozenset({XI2})), NegNode(XI, ()))
        d = Design(Pitchfork(None, frozenset({XI})), PosNode(XI, (0, 1), (
            bad, daimon((0, 1), (0, 1, 5)))))
        assert validate_design(d) == [
            "root·0: premise not based on 0.0",
            "root·0: premise context escapes the conclusion",
            "root·1: premise not based on 0.1",
            "root·1: premise context escapes the conclusion",
            "root·1: addresses 0.1 and 0.1.5 are not disjoint"]


class TestSubdesignOrder:
    def test_reflexive(self):
        for d in (daimon(XI), atomic_bomb(XI), skunk(XI),
                  build_fax(XI, XI2, 2, 1)):
            assert subdesign_order(d, d)

    def test_skunk_below_negatives(self):
        deep = negative_sponge(XI, [(), (0,)])
        sk = Design(deep.base, skunk(XI).node)
        assert subdesign_order(sk, deep)
        assert not subdesign_order(deep, sk)

    def test_daimon_not_below_bomb(self):
        assert not subdesign_order(daimon(XI), atomic_bomb(XI))

    def test_antisymmetry_and_transitivity(self):
        rng = random.Random(17)
        for _ in range(80):
            d = random_design(rng, Pitchfork(None, frozenset({XI})), 3)
            p = prune(rng, d)
            q = prune(rng, p)
            assert subdesign_order(q, d)                     # transitivity
            if subdesign_order(d, p):                        # antisymmetry
                assert p == d

    def test_merge_restores_upper_bound(self):
        rng = random.Random(19)
        for _ in range(60):
            d = random_design(rng, Pitchfork(XI, frozenset()), 3)
            p1, p2 = prune(rng, d), prune(rng, d)
            m = merge_subdesigns(p1, p2)
            assert subdesign_order(p1, m) and subdesign_order(p2, m)
            assert subdesign_order(m, d)

    def test_order_does_not_rest_on_merge(self, monkeypatch):
        """The order checks merge_subdesigns in the tests above, so it is
        its own node-by-node comparison."""
        import groundkit.designs as designs

        def no_merge(d1, d2):
            raise AssertionError("subdesign_order called merge_subdesigns")
        monkeypatch.setattr(designs, "merge_subdesigns", no_merge)
        rng = random.Random(37)
        for _ in range(30):
            d = random_design(rng, Pitchfork(XI, frozenset()), 3)
            assert subdesign_order(prune(rng, d), d)

    def test_merge_refuses_duplicate_branch_keys(self):
        d = Design(skunk(XI).base, NegNode(XI, ((((), daimon())),) * 2))
        with pytest.raises(ValueError, match="duplicate branch keys"):
            merge_subdesigns(d, d)


class TestMisc:
    def test_depth_and_daimon_detection(self):
        fx = build_fax(XI, XI2, 1, 1)
        assert design_depth(daimon(XI)) == 0
        assert design_depth(atomic_bomb(XI)) == 1
        assert contains_daimon(negative_sponge(XI, [()]))
        assert not contains_daimon(fx)

    def test_delocate(self):
        d = atomic_bomb((0, 1))
        assert delocate(d, (0,), (5,)) == atomic_bomb((5, 1))
        fx = build_fax(XI, XI2, 2, 1)
        moved = delocate(fx, XI, (7,))
        assert moved.base == Pitchfork((7,), frozenset({XI2}))
        assert validate_design(moved) == []


class TestInterning:
    def test_equal_designs_are_one_object(self):
        assert positive(XI, {0: skunk((0, 0))}) is \
            positive(XI, {0: skunk((0, 0))})
        assert build_fax(XI, XI2, 2, 1) is build_fax(XI, XI2, 2, 1)
        assert daimon(XI) is not fid(XI)
        rng = random.Random(23)
        for _ in range(50):
            d = random_design(rng, Pitchfork(XI, frozenset()), 3)
            rebuilt = delocate(delocate(d, XI, (9,)), (9,), XI)
            assert rebuilt is d
            assert merge_subdesigns(d, d) is d

    def test_repr_is_the_dataclass_text(self):
        assert repr(atomic_bomb(XI)) == (
            "Design(base=Pitchfork(neg=None, pos=frozenset({(0,)})), "
            "node=PosNode(focus=(0,), ramification=(), children=()))")
        assert repr(skunk(XI)) == (
            "Design(base=Pitchfork(neg=(0,), pos=frozenset()), "
            "node=NegNode(focus=(0,), branches=()))")
        assert repr(negative(XI, {(): daimon()})) == (
            "Design(base=Pitchfork(neg=(0,), pos=frozenset()), "
            "node=NegNode(focus=(0,), branches=(((), Design(base=Pitchfork("
            "neg=None, pos=frozenset()), node=DaimonLeaf())),)))")

    def test_hash_is_the_structural_one(self):
        rng = random.Random(29)
        for _ in range(50):
            d = random_design(rng, Pitchfork(None, frozenset({XI})), 3)
            assert hash(d) == hash((d.base, d.node))
        # † and Fid hash alike, as the frozen dataclasses' did
        assert hash(daimon(XI)) == hash(fid(XI))

    def test_daimon_flag_is_read_from_the_children(self):
        rng = random.Random(31)
        for _ in range(100):
            d = random_design(rng, Pitchfork(XI, frozenset()), 3)
            assert contains_daimon(d) == any(
                isinstance(s.node, DaimonLeaf) for _, s in subtrees(d))
