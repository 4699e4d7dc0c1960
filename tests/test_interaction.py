import random
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import convergent_pair
from interaction_oracle import oracle_make_cutnet, oracle_normalize
from test_designs import negative_sponge, nodes, random_design

from groundkit.designs import (
    DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode, atomic_bomb,
    daimon, fid, format_address, merge_subdesigns, negative, positive, skunk,
    subdesign_order, validate_design,
)
from groundkit.interaction import (
    BaseMismatch, Converged, CutNetError, Diverged, dual_bases,
    join_used_parts, make_cutnet, normalize_closed, orthogonal,
    render_design, snapshots,
)
from groundkit.interaction import (
    CONVERGED, NO_BRANCH, OMEGA, UNCUT, Exhausted, run_closed, step,
)

XI = (0,)


class TestMakeCutnet:
    def test_two_design_closed(self):
        net = make_cutnet((daimon(XI), skunk(XI)))
        assert net.cuts == {XI}
        assert net.closed
        assert net.principal == daimon(XI)

    def test_single_design_open(self):
        net = make_cutnet((atomic_bomb(XI),))
        assert net.cuts == frozenset()
        assert net.base == Pitchfork(None, frozenset({XI}))
        assert not net.closed

    def test_address_in_three_bases(self):
        with pytest.raises(CutNetError) as e:
            make_cutnet((daimon(XI), skunk(XI), skunk(XI)))
        assert any("condition (2)" in p for p in e.value.problems)

    def test_same_polarity_twice(self):
        with pytest.raises(CutNetError) as e:
            make_cutnet((daimon(XI), daimon(XI)))
        assert any("condition (2)" in p for p in e.value.problems)

    def test_overlapping_bases(self):
        with pytest.raises(CutNetError) as e:
            make_cutnet((daimon(XI), skunk((0, 1))))
        assert any("condition (1)" in p or "condition (3)" in p
                   for p in e.value.problems)

    def test_disconnected(self):
        with pytest.raises(CutNetError) as e:
            make_cutnet((daimon(XI), daimon((1,))))
        assert any("condition (3)" in p for p in e.value.problems)

    @pytest.mark.parametrize("bases, problem", [
        # a cycle of two cuts between two designs, and a third design apart
        ([((2,), [(0,)]), ((0,), [(2,)]), (None, [(3,)])], "not connected"),
        # the self-cut 0 ⊢ 0, alone and beside another design
        ([(XI, [XI])], "not a tree (1 cuts over 1 designs)"),
        ([(XI, [XI]), (None, [(1,)])], "not connected"),
    ])
    def test_cut_graph_not_a_tree(self, bases, problem):
        designs = [Design(Pitchfork(neg, frozenset(pos)), FidLeaf())
                   for neg, pos in bases]
        with pytest.raises(CutNetError) as e:
            make_cutnet(designs)
        assert e.value.problems == [f"condition (3): the cut graph is "
                                    f"{problem}"]

    #: nonempty addresses, closed under nonempty prefixes, so bases overlap
    #: in every way and still make valid nets of up to four designs
    POOL = [(0,), (1,), (2,), (3,), (0, 0), (0, 1), (1, 0), (0, 0, 0)]

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_the_reference(self, seed):
        """Cut-nets, or the exact problems, of the one-walk make_cutnet and
        of the reference, on 0-4 designs with bases drawn from POOL."""
        rng = random.Random(seed)
        for _ in range(2000):
            designs = [Design(Pitchfork(
                rng.choice([None, *self.POOL]),
                frozenset(rng.sample(self.POOL, rng.randint(0, 2)))),
                rng.choice([FidLeaf(), DaimonLeaf()]))
                for _ in range(rng.randint(0, 4))]
            outcomes = []
            for build in (make_cutnet, oracle_make_cutnet):
                try:
                    outcomes.append(build(designs))
                except CutNetError as e:
                    outcomes.append(e.problems)
            assert outcomes[0] == outcomes[1]


class TestNormalizeClosed:
    def test_convergent_pair(self):
        out = normalize_closed(convergent_pair())
        assert isinstance(out, Converged)
        foci = [xi for pol, xi, _ in out.trace if pol == "+"]
        assert foci == [(0,), (0, 1)]
        assert out.trace[-1] == ("†", (0, 1, 1), ())
        visited = {xi for _, xi, _ in out.trace}
        assert (0, 1, 3) not in visited and (0, 2) not in visited

    def test_daimon_converges_immediately(self):
        rng = random.Random(3)
        for _ in range(30):
            d = random_design(rng, Pitchfork(XI, frozenset()), 3)
            out = normalize_closed(make_cutnet((daimon(XI), d)))
            assert isinstance(out, Converged)
            assert sum(1 for pol, _, _ in out.trace if pol == "+") == 0

    def test_bomb_vs_skunk_diverges(self):
        out = normalize_closed(make_cutnet((atomic_bomb(XI), skunk(XI))))
        assert isinstance(out, Diverged)
        assert out.reason == "no-matching-negative-action"
        assert out.at == XI

    def test_fid_diverges(self):
        out = normalize_closed(make_cutnet((fid(XI), skunk(XI))))
        assert isinstance(out, Diverged)
        assert out.reason == "fid-encountered"

    def test_determinism(self):
        net = convergent_pair()
        assert normalize_closed(net) == normalize_closed(net)


class TestOrthogonality:
    def test_bomb_unique_orthogonal(self):
        responder = negative(XI, {(): daimon()})
        assert orthogonal(atomic_bomb(XI), responder) == "yes"

    def test_skunk_daimon(self):
        assert orthogonal(skunk(XI), daimon(XI)) == "yes"

    def test_bomb_skunk(self):
        assert orthogonal(atomic_bomb(XI), skunk(XI)) == "no"

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            orthogonal(daimon(XI), daimon(XI))

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_design(rng, Pitchfork(None, frozenset({XI})), 3)
            n = random_design(rng, Pitchfork(XI, frozenset()), 3)
            assert orthogonal(p, n) == orthogonal(n, p)

    def test_daimon_universality(self):
        rng = random.Random(7)
        for _ in range(60):
            n = random_design(rng, Pitchfork(XI, frozenset()), 3)
            assert orthogonal(daimon(XI), n) == "yes"

    def test_fid_sterility(self):
        rng = random.Random(9)
        for _ in range(40):
            n = random_design(rng, Pitchfork(XI, frozenset()), 3)
            assert orthogonal(fid(XI), n) == "no"


class TestDualBases:
    ALPHA, BETA = (0, 0), (0, 1)

    def test_arrow_base_is_tested_by_pairs(self):
        p = Pitchfork(self.ALPHA, frozenset({self.BETA}))
        assert dual_bases(p) == (Pitchfork(None, frozenset({self.ALPHA})),
                                 Pitchfork(self.BETA, frozenset()))

    def test_overlapping_arrow_base_rejected(self):
        for bad in (Pitchfork(XI, frozenset({(0, 1)})),
                    Pitchfork(XI, frozenset({(1,), (2,)}))):
            with pytest.raises(BaseMismatch):
                dual_bases(bad)

    def test_mismatch_is_a_value_error(self):
        assert issubclass(BaseMismatch, ValueError)

    def test_pair_test_checks_bases(self):
        d = negative(self.ALPHA, {(): daimon()}, extra=[self.BETA])
        a = atomic_bomb(self.ALPHA)
        assert orthogonal(d, (a, skunk(self.BETA))) == "yes"
        for bad in ((skunk(self.BETA), a), (a,), (a, skunk((0, 2)))):
            with pytest.raises(BaseMismatch):
                orthogonal(d, bad)
        with pytest.raises(BaseMismatch):
            orthogonal(a, (d, skunk(self.BETA)))


class TestUsedPart:
    def test_daimon_keeps_only_the_skunk_root(self):
        deep = negative_sponge(XI, [(), (0,), (0, 1)])
        out = normalize_closed(make_cutnet((daimon(XI), deep)))
        pruned = join_used_parts(deep, [out.trace])
        assert pruned.node == NegNode(XI, ())
        assert pruned.base == deep.base

    def test_convergent_pair_drops_unvisited_branch(self):
        net = convergent_pair()
        left = net.principal
        out = normalize_closed(net)
        pruned = join_used_parts(left, [out.trace])
        inner = pruned.node.children[0]
        assert tuple(k for k, _ in inner.node.branches) == ((1,),)
        assert validate_design(pruned) == []

    def test_empty_trace_root_pruning(self):
        net = convergent_pair()
        left = net.principal
        assert isinstance(join_used_parts(left, [()]).node, FidLeaf)

    def test_trace_coherence(self):
        """Re-running on the used parts reproduces the same trace."""
        rng = random.Random(21)
        checked = 0
        for _ in range(200):
            p = random_design(rng, Pitchfork(None, frozenset({XI})), 3)
            n = random_design(rng, Pitchfork(XI, frozenset()), 3)
            out = normalize_closed(make_cutnet((p, n)))
            if not isinstance(out, Converged):
                continue
            p2, n2 = (join_used_parts(x, [out.trace]) for x in (p, n))
            assert validate_design(p2) == [] and validate_design(n2) == []
            again = normalize_closed(make_cutnet((p2, n2)))
            assert isinstance(again, Converged)
            assert again.trace == out.trace
            checked += 1
        assert checked > 10


class TestOracleAgreement:
    def test_random_two_design_nets(self):
        rng = random.Random(23)
        for _ in range(300):
            p = random_design(rng, Pitchfork(None, frozenset({XI})), 3)
            n = random_design(rng, Pitchfork(XI, frozenset()), 3)
            out = normalize_closed(make_cutnet((p, n)))
            verdict, consumed = oracle_normalize([p, n])
            expected = {"converged": Converged, "diverged": Diverged}
            assert isinstance(out, expected[verdict])
            engine_pairs = [(xi, ram) for pol, xi, ram in out.trace
                            if pol == "+"]
            assert engine_pairs == consumed

    def test_three_design_net(self):
        # a ⊢ (0,) cut with a copycat (0,)⊢(1,) cut with a (1,)⊢ responder
        from groundkit.designs import build_fax
        fx = build_fax((0,), (1,), 2, 1)
        left = daimon((0,))
        right = negative((1,), {(): daimon()})
        out = normalize_closed(make_cutnet((left, fx, right)))
        verdict, consumed = oracle_normalize([left, fx, right])
        assert isinstance(out, Converged) and verdict == "converged"
        assert [(xi, r) for pol, xi, r in out.trace if pol == "+"] \
            == consumed


class TestRendering:
    def test_snapshots_golden(self):
        import pathlib
        golden = pathlib.Path(__file__).parent / "golden" / \
            "convergent_pair_snapshots.txt"
        assert snapshots(convergent_pair())[1] == golden.read_text()

    def test_snapshot_count(self):
        text = snapshots(convergent_pair())[1]
        assert text.count("== ") == 4            # three steps plus the result
        assert text.rstrip().endswith("† ⊢")


class TestMachine:
    def test_step_consumes_one_pair(self):
        left, right = convergent_pair().designs
        env = {XI: right}
        nxt = step(left, env)
        assert nxt == dict(right.node.branches)[(1,)]
        assert env == {(0, 1): left.node.children[0]}

    def test_step_says_why_it_stops(self):
        assert step(daimon(XI), {}) == CONVERGED
        assert step(fid(XI), {}) == OMEGA
        assert step(atomic_bomb(XI), {XI: skunk(XI)}) == NO_BRANCH
        assert step(atomic_bomb(XI), {}) == UNCUT

    def test_uncut_focus_in_a_closed_net_is_an_error(self):
        # the listener at 0.1 is consumed, then the left design focuses
        # 0.1 a second time
        again = positive((0,), {1: negative((0, 1), {
            (1,): positive((0, 1), extra=[(0, 1, 1)])})})
        right = negative((0,), {(1,): positive((0, 1), {1: negative(
            (0, 1, 1), {(): daimon()})})})
        with pytest.raises(CutNetError, match="no design listens at 0.1"):
            run_closed((again, right))


class TestFuel:
    """A run that needs N action pairs succeeds with fuel N and runs out
    with fuel N - 1."""

    def test_normalize_closed(self):
        net = convergent_pair()              # two pairs, then the daimon
        assert isinstance(normalize_closed(net, 2), Converged)
        out = normalize_closed(net, 1)
        assert isinstance(out, Exhausted)

    def test_orthogonal(self):
        left, right = convergent_pair().designs
        assert orthogonal(left, right, 2) == "yes"
        assert orthogonal(left, right, 1) == "unknown"

    def test_snapshots(self):
        net = convergent_pair()
        assert snapshots(net, 2)[1].endswith("== result ==\n† ⊢\n")
        text = snapshots(net, 1)[1]
        assert text.endswith("== result ==\nfuel exhausted\n")
        assert text.count("== step") == 2

    def test_divergence_needs_no_fuel(self):
        out = normalize_closed(make_cutnet((atomic_bomb(XI), skunk(XI))), 0)
        assert isinstance(out, Diverged)


def pruned_oracle(d, trace):
    """The pruning of d to a trace, by recursion over the design: a positive
    node is kept when its action was consumed, a negative branch when it
    was entered.  Fine for the small designs it is given."""
    consumed = {(xi, ram) for pol, xi, ram in trace if pol in ("+", "-")}
    match d.node:
        case PosNode(focus, ram, kids):
            if (focus, ram) not in consumed:
                return Design(d.base, FidLeaf())
            return Design(d.base, PosNode(focus, ram, tuple(
                pruned_oracle(c, trace) for c in kids)))
        case NegNode(focus, branches):
            return Design(d.base, NegNode(focus, tuple(
                (k, pruned_oracle(b, trace)) for k, b in branches
                if (focus, k) in consumed)))
    return d


def actions(d):
    """Every (address, ramification) pair a node of d can consume."""
    out = []
    for s in nodes(d):
        if isinstance(s.node, PosNode):
            out.append((s.node.focus, s.node.ramification))
        elif isinstance(s.node, NegNode):
            out += [(s.node.focus, k) for k, _ in s.node.branches]
    return out


class TestJoinInOneWalk:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), depth=st.sampled_from([2, 3]),
           negative_base=st.booleans(), n=st.integers(0, 5),
           real=st.booleans())
    def test_join_is_the_fold_of_the_used_parts(self, seed, depth,
                                                negative_base, n, real):
        """join_used_parts over several traces is the merge of the
        per-trace used parts, and each used part is the oracle's pruning.
        The traces come from runs against random counter-designs, or are
        random sets of the design's actions."""
        rng = random.Random(seed)
        pos, neg = Pitchfork(None, frozenset({XI})), Pitchfork(XI, frozenset())
        d = random_design(rng, neg if negative_base else pos, depth)
        traces = []
        for _ in range(n):
            if real:
                e = random_design(rng, pos if negative_base else neg, depth)
                traces.append(run_closed((d, e)).trace)
            else:
                picked = [a for a in actions(d) if rng.random() < 0.6]
                traces.append([("+", xi, ram) for xi, ram in picked]
                              + [("†", XI, ())])
        parts = [join_used_parts(d, [t]) for t in traces]
        for t, p in zip(traces, parts):
            assert p is pruned_oracle(d, t)
        expected = reduce(merge_subdesigns, parts) if parts \
            else join_used_parts(d, [()])
        assert join_used_parts(d, traces) is expected
        assert subdesign_order(expected, d)


def rendered_by_recursion(d, mark, depth=0):
    """render_design's lines, each node's rule and base two spaces deeper
    than its parent's, its premises after it in order."""
    def fa(a):
        return f"*{format_address(a)}*" if a in mark else format_address(a)

    def braces(items):
        return "{" + ",".join(map(str, items)) + "}"

    match d.node:
        case PosNode(focus, ram, kids):
            rule, premises = f"(+ {fa(focus)} {braces(ram)})", kids
        case NegNode(focus, branches):
            keys = "; ".join(braces(k) for k, _ in branches)
            rule = f"(- {fa(focus)} {{{keys}}})"
            premises = [b for _, b in branches]
        case DaimonLeaf():
            rule, premises = "†", ()
        case FidLeaf():
            rule, premises = "Ω", ()
    left = "" if d.base.neg is None else fa(d.base.neg)
    right = ", ".join(fa(a) for a in sorted(d.base.pos))
    lines = [f"{'  ' * depth}{rule} {left} ⊢ {right}".rstrip()]
    for p in premises:
        lines += rendered_by_recursion(p, mark, depth + 1)
    return lines


class TestRenderDesign:
    BASES = [Pitchfork(None, frozenset({XI})), Pitchfork(XI, frozenset()),
             Pitchfork(None, frozenset({XI, (1,)})),
             Pitchfork(XI, frozenset({(1,)}))]

    def test_agrees_with_the_recursive_renderer(self):
        """Random designs at least three rule levels deep, each holding all
        four node kinds, with a non-empty set of marked addresses."""
        rng = random.Random(33)
        kinds = {DaimonLeaf, FidLeaf, PosNode, NegNode}
        checked = 0
        while checked < 200:
            d = random_design(rng, rng.choice(self.BASES), 5)
            depth = max(len(l) - len(l.lstrip(" "))
                        for l in rendered_by_recursion(d, frozenset())) // 2
            if {type(s.node) for s in nodes(d)} != kinds or depth < 3:
                continue
            addresses = sorted({a for s in nodes(d) for a in s.base.pos}
                               | {s.base.neg for s in nodes(d)} - {None})
            mark = frozenset(rng.sample(addresses,
                                        rng.randint(1, len(addresses))))
            assert render_design(d, mark) == rendered_by_recursion(d, mark)
            checked += 1
