import dataclasses
import random

import pytest

from groundkit.focusing import (
    Bottom, ClusteredDerivation, NegAtom, One, Par, Plus, PosAtom,
    StrategyConversionError, Tensor, Top, With, Zero, derivation_to_strategy,
    dual, focused_search, negative_branches, polarity, positive_alternatives,
    pretty, strategy_to_derivation, validate_derivation, validate_game,
    validate_strategy,
)

A, B, C = PosAtom("A"), PosAtom("B"), PosAtom("C")
Ad, Bd, Cd = NegAtom("A"), NegAtom("B"), NegAtom("C")

NEG = Par(A, With(B, C))
POS = Plus(Tensor(Ad, Bd), Tensor(Ad, Cd))
SEQ = (NEG, POS)


class TestPolarizedFormulas:
    def test_polarity_total(self):
        assert polarity(Tensor(A, B)) == "pos"
        assert polarity(Plus(A, B)) == "pos"
        assert polarity(One()) == "pos"
        assert polarity(Zero()) == "pos"
        assert polarity(A) == "pos"
        assert polarity(Par(A, B)) == "neg"
        assert polarity(With(A, B)) == "neg"
        assert polarity(Top()) == "neg"
        assert polarity(Bottom()) == "neg"
        assert polarity(Ad) == "neg"

    def test_dual_involution(self):
        rng = random.Random(1)
        for _ in range(60):
            f = random_formula(rng, 3)
            assert dual(dual(f)) == f
            assert polarity(dual(f)) != polarity(f)

    def test_pretty(self):
        assert pretty(POS) == "((A⊥ ⊗ B⊥) ⊕ (A⊥ ⊗ C⊥))"


class TestClusterDecompositions:
    def test_negative_branches_of_worked_formula(self):
        assert negative_branches(NEG) == [[A, B], [A, C]]

    def test_top_has_no_branches(self):
        assert negative_branches(With(Top(), A)) == negative_branches(A)
        assert negative_branches(Top()) == []

    def test_bottom_is_an_empty_branch(self):
        assert negative_branches(Par(Bottom(), A)) == [[A]]

    def test_positive_alternatives_of_worked_formula(self):
        assert positive_alternatives(POS) == [[[Ad], [Bd]], [[Ad], [Cd]]]

    def test_one_is_an_empty_alternative(self):
        assert positive_alternatives(One()) == [[]]
        assert positive_alternatives(Tensor(One(), A)) == [[[A]]]


class TestFocusedSearch:
    def test_worked_example(self):
        d = focused_search(SEQ)
        assert d is not None
        assert validate_derivation(d) == []
        assert d.rule == "neg-cluster"
        assert d.focus == NEG
        assert d.selections == ((A, B), (A, C))
        for child, leaf_pair in zip(d.children, ((Ad, Bd), (Ad, Cd))):
            assert child.rule == "pos-cluster"
            assert child.focus == POS
            assert child.selections == tuple((x,) for x in leaf_pair)
            assert all(g.rule == "axiom" for g in child.children)

    def test_axiom_sequent(self):
        d = focused_search((A, Ad))
        assert d == ClusteredDerivation((A, Ad), "axiom")

    def test_unprovable_returns_none(self):
        assert focused_search((A,)) is None
        assert focused_search((A, B)) is None

    def test_daimon_mode_closes_stuck_branches(self):
        d = focused_search((A,), daimon_mode=True)
        assert d.rule == "daimon"
        d2 = focused_search((With(Ad, Bd), A), daimon_mode=True)
        assert d2.rule == "neg-cluster"
        rules = {c.rule for c in d2.children}
        assert rules == {"axiom", "daimon"}

    def test_search_is_deterministic(self):
        assert focused_search(SEQ) == focused_search(SEQ)


class TestGamesAndStrategies:
    def expected_strategy(self):
        g1 = ((NEG, frozenset({A, B})), (POS, frozenset({Ad, Bd})))
        g2 = ((NEG, frozenset({A, C})), (POS, frozenset({Ad, Cd})))
        return frozenset({g1, g2, g1[:1], g2[:1]})

    def test_worked_strategy_is_two_games_prefix_closed(self):
        d = focused_search(SEQ)
        s = derivation_to_strategy(d)
        assert s == self.expected_strategy()
        assert validate_strategy(s) == []

    def test_single_axiom_gives_empty_strategy(self):
        # a lone axiom makes no move, so no game can be recorded
        d = focused_search((A, Ad))
        assert derivation_to_strategy(d) == frozenset()

    def test_game_validation(self):
        m_neg = (NEG, frozenset({A, B}))
        m_pos = (POS, frozenset({Ad, Bd}))
        assert validate_game((m_neg, m_pos)) == []
        assert validate_game(()) != []
        assert validate_game((m_neg, m_neg)) != []          # equal polarity
        assert validate_game((m_pos, (With(A, B), frozenset({A})))) != []
        assert validate_game((m_neg, m_pos, m_neg)) != []   # repeated focus

    def test_prefix_closure_checked(self):
        d = focused_search(SEQ)
        s = derivation_to_strategy(d)
        broken = frozenset(g for g in s if len(g) == 2)
        assert any("prefix" in p for p in validate_strategy(broken))

    def test_roundtrip_on_worked_example(self):
        d = focused_search(SEQ)
        s = derivation_to_strategy(d)
        assert strategy_to_derivation(s, SEQ) == d

    def test_empty_strategy_fails(self):
        with pytest.raises(StrategyConversionError):
            strategy_to_derivation(frozenset(), SEQ)

    def test_conflicting_positive_moves_fail(self):
        g1 = ((POS, frozenset({Ad, Bd})),)
        g2 = ((POS, frozenset({Ad, Cd})),)
        with pytest.raises(StrategyConversionError):
            strategy_to_derivation(frozenset({g1, g2}), (POS, A, B))


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([A, B, Ad, Bd])
    op = rng.choice([Tensor, Par, Plus, With])
    return op(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


class TestRoundtripCorpus:
    def test_random_tautologies(self):
        """Search, extract the strategy, rebuild, and compare — on every
        provable (f, f⊥) found in a random corpus."""
        rng = random.Random(41)
        done = 0
        for _ in range(150):
            f = random_formula(rng, 2)
            seq = (f, dual(f))
            d = focused_search(seq)
            if d is None or d.rule == "axiom":
                continue
            assert validate_derivation(d) == []
            s = derivation_to_strategy(d)
            assert validate_strategy(s) == []
            d2 = strategy_to_derivation(s, seq)
            assert validate_derivation(d2) == []
            assert derivation_to_strategy(d2) == s
            done += 1
        assert done > 80

    def test_search_prefers_alternating_derivations(self):
        # both sequents admit derivations whose games break alternation
        # (a greedy context split strands positive compounds together);
        # the search must back off to the alternating one
        for f in (Par(Tensor(B, Bd), Tensor(Bd, B)),
                  With(Bd, Plus(Bd, Ad))):
            seq = (f, dual(f))
            d = focused_search(seq)
            assert d is not None and validate_derivation(d) == []
            s = derivation_to_strategy(d)
            assert validate_strategy(s) == []
            assert derivation_to_strategy(strategy_to_derivation(s, seq)) == s


UNITS = [One(), Zero(), Top(), Bottom()]


def random_unit_formula(rng: random.Random, depth: int):
    """Like random_formula, with the four units among the leaves."""
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([A, B, Ad, Bd, *UNITS])
    op = rng.choice([Tensor, Par, Plus, With])
    return op(random_unit_formula(rng, depth - 1),
              random_unit_formula(rng, depth - 1))


class TestUnits:
    def test_zero_has_no_alternatives(self):
        assert positive_alternatives(Zero()) == []
        assert positive_alternatives(Plus(Zero(), A)) == \
            positive_alternatives(A)
        assert positive_alternatives(Tensor(Zero(), A)) == []

    def test_branches_are_the_dual_alternatives(self):
        """Each negative branch of f, dualised leaf by leaf, is the leaf
        list of the positive alternative of f⊥ in the same place."""
        rng = random.Random(5)
        for _ in range(500):
            f = random_unit_formula(rng, 3)
            assert [[dual(x) for x in b] for b in negative_branches(f)] == \
                [[x for g in alt for x in g]
                 for alt in positive_alternatives(dual(f))]

    def test_every_unit_tautology_is_found(self):
        rng = random.Random(5)
        for _ in range(200):
            f = random_unit_formula(rng, 2)
            d = focused_search((f, dual(f)))
            assert d is not None and validate_derivation(d) == []

    def test_zero_alone_is_unprovable(self):
        assert focused_search((Zero(),)) is None
        assert focused_search((Zero(),), daimon_mode=True).rule == "daimon"
        d = focused_search((Plus(Zero(), One()),))
        assert d.rule == "pos-cluster" and d.children == ()
        assert validate_derivation(d) == []

    def test_every_unit_derivation_comes_back_from_its_strategy(self):
        """Derivation → strategy → derivation on the unit corpus.  Left out:
        a bare axiom, whose strategy is empty by design, and a derivation
        with a branch-less (⊤-like) negative cluster, which no move can
        carry."""
        def branchless(d):
            return d.rule == "neg-cluster" and not d.children \
                or any(map(branchless, d.children))

        rng = random.Random(5)
        done = 0
        for _ in range(200):
            f = random_unit_formula(rng, 2)
            for seq in ((f, dual(f)), (f,)):
                d = focused_search(seq)
                if d is None or d.rule == "axiom" or branchless(d):
                    continue
                back = strategy_to_derivation(derivation_to_strategy(d), seq)
                assert validate_derivation(back) == []
                done += 1
        assert done == 112

    def test_premise_less_cluster_round_trips(self):
        for f in (One(), Plus(Zero(), One())):
            d = focused_search((f,))
            s = derivation_to_strategy(d)
            assert s == {((f, frozenset()),)}
            assert strategy_to_derivation(s, (f,)) == d

    def test_deep_chain_round_trips(self):
        """A 10⁴-deep ⊕ chain of zeros ending in 1 comes back from its
        strategy: reading it back never prints a formula."""
        f = One()
        for _ in range(10_000):
            f = Plus(Zero(), f)
        d = focused_search((f,))
        assert validate_derivation(d) == []
        assert strategy_to_derivation(derivation_to_strategy(d), (f,)) == d


def nodes(d, path=()):
    """Every node of a derivation with its path of child indices."""
    yield path, d
    for i, c in enumerate(d.children):
        yield from nodes(c, path + (i,))


def replace_at(d, path, node):
    if not path:
        return node
    children = list(d.children)
    children[path[0]] = replace_at(children[path[0]], path[1:], node)
    return dataclasses.replace(d, children=tuple(children))


def test_mutated_derivations_get_problems_not_exceptions():
    """Each node of the unit corpus's derivations, one mutation at a time:
    a formula dropped from its sequent (its focus too), its cluster's
    polarity swapped, its last premise dropped.  validate_derivation
    reports them with problem lines and raises on none.  The unreported
    mutants drop a formula beside ⊤ at the root: still derivations."""
    rng = random.Random(5)
    counts = {"mutants": 0, "reported": 0, "focus missing": 0}
    for _ in range(100):
        f = random_unit_formula(rng, 2)
        d = focused_search((f, dual(f)))
        for path, node in nodes(d):
            mutants = [dataclasses.replace(node, sequent=node.sequent[:k]
                                           + node.sequent[k + 1:])
                       for k in range(len(node.sequent))]
            if node.rule.endswith("-cluster"):
                swap = {"neg-cluster": "pos-cluster",
                        "pos-cluster": "neg-cluster"}[node.rule]
                mutants += [dataclasses.replace(node, rule=swap),
                            dataclasses.replace(node,
                                                children=node.children[:-1])]
            for m in mutants:
                if m == node:
                    continue
                problems = validate_derivation(replace_at(d, path, m))
                counts["mutants"] += 1
                counts["reported"] += bool(problems)
                counts["focus missing"] += any(
                    p.endswith("focus is not in the sequent")
                    for p in problems)
    assert counts == {"mutants": 1916, "reported": 1905, "focus missing": 439}


def test_focus_outside_its_sequent_is_a_problem():
    a = PosAtom("a")
    d = ClusteredDerivation((a, dual(a)), "neg-cluster", Par(dual(a), dual(a)),
                            ((dual(a), dual(a)),), (
                                ClusteredDerivation((a, dual(a)), "axiom"),))
    assert validate_derivation(d) == [
        "root: focus is not in the sequent",
        "root.0: premise sequent mismatch"]
