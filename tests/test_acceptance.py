"""End-to-end acceptance gate.

Each test prints a single pass/fail line for its criterion (straight to the
terminal, bypassing capture) and asserts the same facts, so the suite both
reports and enforces them.
"""

import pathlib
import random
import sys
import time

import pytest

from conftest import (
    A, AA, convergent_pair, identity_term, open_variant, pingpong_env,
    pingpong_term, worked_term,
)
from interaction_oracle import oracle_normalize
from termgen import corpus
from test_designs import random_design, prune
from translate_oracle import behaviour_arrow, behaviour_at

from groundkit import terms as tm
from groundkit import focusing as fo
from groundkit.formulas import Absurd, Atom, Disj, Impl
from groundkit.designs import (
    NegNode, Pitchfork, atomic_bomb, build_fax, daimon, fid, negative,
    skunk, subdesign_order, validate_design,
)
from groundkit.behaviours import (
    SizeLimitExceeded, UniverseBounds, behaviour, classify_candidate,
    enumerate_universe, full_pool, incarnation_of, members, orthogonal_set,
)
from groundkit.interaction import (
    Converged, Diverged, make_cutnet, normalize_closed, orthogonal, snapshots,
)
from groundkit.translate import TranslationEnv, normalize_open, translate

XI = (0,)
POS = Pitchfork(None, frozenset({XI}))
NEG = Pitchfork(XI, frozenset())
GOLDEN = pathlib.Path(__file__).parent / "golden" \
    / "convergent_pair_snapshots.txt"


def report(n: int, ok: bool, detail: str) -> None:
    status = "pass" if ok else "FAIL"
    print(f"criterion {n:2d}: {status} — {detail}", file=sys.__stdout__)
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_worked_reduction():
    t0 = time.perf_counter()
    out = tm.normalize(worked_term())
    ms = (time.perf_counter() - t0) * 1000
    ok = (isinstance(out, tm.Canonical)
          and out.term == identity_term()
          and [n for _, n in out.trace] == ["impl-e", "disj-e"]
          and ms < 10)
    report(1, ok, f"worked term → identity in 2 steps "
                  f"(impl-e, disj-e) in {ms:.2f} ms")


def test_criterion_02_open_variant_typing():
    ty = tm.typecheck(open_variant())
    ok = ty.antecedents == (AA,) and ty.succedent == AA
    report(2, ok, "open variant types at A→A ⊢ A→A")


def test_criterion_03_ds_equations():
    dAB = Disj(A, Atom("B"))
    not_a = tm.ImplI(tm.Var("y", A),
                     tm.ImplE(tm.Var("n", Impl(A, Absurd())),
                              tm.Var("y", A)))
    b = tm.Const("b", Atom("B"))
    second = tm.normalize(tm.DS(tm.DisjI(2, dAB, b), not_a))
    ok2 = (isinstance(second, tm.Canonical) and second.term == b
           and second.trace[0][1] == "ds-2")

    a = tm.Const("a", A)
    stepped, _, name = tm.reduce_step_at(tm.DS(tm.DisjI(1, dAB, a), not_a))
    ok1 = (name == "ds-1" and isinstance(stepped, tm.Exploder)
           and stepped.target == Atom("B")
           and stepped.body == tm.ImplE(not_a, a))

    stuck = tm.normalize(tm.DS(tm.Var("z", dAB), not_a))
    ok_stuck = isinstance(stuck, tm.Stuck)
    report(3, ok1 and ok2 and ok_stuck,
           "both disjunctive-syllogism conversions fire; non-injection "
           "head is Stuck")


def test_criterion_04_pingpong_loop():
    out = tm.normalize(pingpong_term(), pingpong_env())
    ok = isinstance(out, tm.Loop) and len(out.trace) <= 4
    steps = len(out.trace) if isinstance(out, tm.Loop) else "-"
    report(4, ok, f"f/f₁ ping-pong detected as a loop in {steps} steps")


def test_criterion_05_interaction_trace_and_golden():
    out = normalize_closed(convergent_pair())
    foci = [xi for pol, xi, _ in out.trace if pol == "+"]
    visited = {xi for _, xi, _ in out.trace}
    text = snapshots(convergent_pair())[1]
    ok = (isinstance(out, Converged)
          and foci == [(0,), (0, 1)]
          and out.trace[-1][0] == "†" and out.trace[-1][1] == (0, 1, 1)
          and (0, 1, 3) not in visited and (0, 2) not in visited
          and text == GOLDEN.read_text())
    report(5, ok, "closed net converges †, focus order ξ ξ1 ξ11, unused "
                  "branches untouched; snapshots byte-match the golden file")


@pytest.mark.xfail(strict=True, reason=(
    "the stated bounds (depth ≤ 3 over the full two-index ramification "
    "pool) make the design universe astronomically large, and the "
    "single-responder claim for {bomb}^⊥ only holds at the singleton "
    "pool; the same facts are verified at tractable bounds below"))
def test_criterion_06_behaviour_sets_at_stated_bounds():
    # {bomb}^⊥ must enumerate every negative design at depth ≤ 3 over
    # pool 𝒫({0,1}); that universe has ~5.4 × 10¹² members
    stated = UniverseBounds(3, full_pool(1), POS, cap=1_000_000)
    try:
        single = frozenset(orthogonal_set([atomic_bomb(XI)], stated))
        ok = single == {negative(XI, {(): daimon()})}
    except SizeLimitExceeded:
        ok = False
    report(6, ok, "behaviour sets computed at depth ≤ 3 over pool 𝒫({0,1})")


def test_criterion_06_behaviour_sets_reduced_bounds():
    t0 = time.perf_counter()
    tiny = UniverseBounds(2, ((),), POS)
    single = frozenset(orthogonal_set([atomic_bomb(XI)], tiny))
    ok_single = single == {negative(XI, {(): daimon()})}

    full2 = UniverseBounds(2, full_pool(1), POS)
    one = behaviour([atomic_bomb(XI)], full2)
    ok_one = members(one) == {atomic_bomb(XI), daimon(XI)}
    ok_skunk = frozenset(orthogonal_set([skunk(XI)], full2.at(NEG))) \
        == {daimon(XI)}
    negatives = set(enumerate_universe(full2.at(NEG)))
    ok_daimon = frozenset(orthogonal_set([daimon(XI)], full2)) == negatives
    top = behaviour([skunk(XI)], full2.at(NEG))
    ok_top = all(incarnation_of(d, top).node == NegNode(XI, ())
                 for d in members(top))
    secs = time.perf_counter() - t0
    ok = (ok_single and ok_one and ok_skunk and ok_daimon and ok_top
          and secs < 60)
    report(6, ok, f"behaviour sets matched exactly at tractable bounds "
                  f"(1, ⊤, {{bomb}}^⊥, {{skunk}}^⊥, Daimon^⊥) in {secs:.1f} s")


def test_criterion_07_fax_translation_and_protocol():
    fx = build_fax((0, 0), (0, 1), 2, 0)
    out = normalize_open(make_cutnet((daimon((0, 0)), fx)))
    ok_cut = out == daimon((0, 1))

    bounds = UniverseBounds(2, ((), (0,)), Pitchfork(None,
                                                     frozenset({(9,)})))
    zero = behaviour([daimon((9,))], bounds.at(Pitchfork(None,
                                                         frozenset({(9,)}))))
    env = TranslationEnv({Absurd(): zero}, bounds, fax_arity=0)
    x = tm.Var("x", Absurd())
    d = translate(tm.ImplI(x, x), env, root=(0,))
    ok_translate = d == fx

    ab = behaviour_arrow(behaviour_at(env, Absurd(), (0, 0)),
                         behaviour_at(env, Absurd(), (0, 1)), bounds)
    v = classify_candidate(d, ab)
    ok_classify = (v.tag, v.reason) == ("PseudoGround", "not-material")
    report(7, ok_cut and ok_translate and ok_classify,
           "Fax∘† = † at the codomain; copycat translates to Fax; "
           "0→0 classification follows the documented protocol "
           "(member, †-free, not material)")


def test_criterion_08_classification():
    full2 = UniverseBounds(2, full_pool(1), POS)
    one = behaviour([atomic_bomb(XI)], full2)
    zero = behaviour([daimon(XI)], full2)
    ok = (classify_candidate(atomic_bomb(XI), one).tag == "Ground"
          and all((classify_candidate(daimon(XI), b).tag,
                   classify_candidate(daimon(XI), b).reason)
                  == ("PseudoGround", "contains-daimon")
                  for b in (one, zero)))
    report(8, ok, "bomb is Ground in 1; Daimon is "
                  "PseudoGround(contains-daimon) in 1 and in 0")


def test_criterion_09_focusing():
    A_, B_, C_ = fo.PosAtom("A"), fo.PosAtom("B"), fo.PosAtom("C")
    Ad, Bd, Cd = fo.NegAtom("A"), fo.NegAtom("B"), fo.NegAtom("C")
    neg = fo.Par(A_, fo.With(B_, C_))
    pos = fo.Plus(fo.Tensor(Ad, Bd), fo.Tensor(Ad, Cd))
    seq = (neg, pos)
    d = fo.focused_search(seq)
    ok_d = (d is not None and fo.validate_derivation(d) == []
            and d.rule == "neg-cluster"
            and d.selections == ((A_, B_), (A_, C_)))
    g1 = ((neg, frozenset({A_, B_})), (pos, frozenset({Ad, Bd})))
    g2 = ((neg, frozenset({A_, C_})), (pos, frozenset({Ad, Cd})))
    want = frozenset({g1, g2, g1[:1], g2[:1]})
    s = fo.derivation_to_strategy(d)
    ok_s = s == want
    ok_inv = fo.strategy_to_derivation(s, seq) == d
    report(9, ok_d and ok_s and ok_inv,
           "worked clustered derivation found; strategy is the prefix "
           "closure of its two games; conversion inverts")


def test_criterion_10_exhaustive_oracle_sweep():
    t0 = time.perf_counter()
    full2 = UniverseBounds(2, full_pool(1), POS)
    positives = enumerate_universe(full2)
    negatives = enumerate_universe(full2.at(NEG))
    total = mismatches = 0
    expected = {"converged": Converged, "diverged": Diverged}
    for p in positives:
        for n in negatives:
            out = normalize_closed(make_cutnet((p, n)))
            verdict, consumed = oracle_normalize([p, n])
            total += 1
            if not isinstance(out, expected.get(verdict, ())):
                mismatches += 1
                continue
            if [(xi, r) for pol, xi, r in out.trace if pol == "+"] \
                    != consumed:
                mismatches += 1
    secs = time.perf_counter() - t0
    ok = (total == len(positives) * len(negatives) == 6726 * 240
          and mismatches == 0 and secs < 300)
    report(10, ok, f"engine agrees with the rebuild oracle on all "
                   f"{total:,} closed two-design nets in {secs:.0f} s")


def test_criterion_11_property_suites():
    # subject reduction on 1,000 random well-typed terms
    terms = corpus(seed=101, size=1000)
    for t in terms:
        ty = tm.typecheck(t)
        hit = tm.reduce_step_at(t)
        while hit is not None:
            assert tm.typecheck(hit[0]) == ty
            prev, hit = hit[0], tm.reduce_step_at(hit[0])
            if tm.is_primitive_head(prev):
                break

    rng = random.Random(103)
    small = UniverseBounds(2, ((), (0,)), POS)
    universe = [d for d in enumerate_universe(small)
                if not d.node.__class__.__name__ == "FidLeaf"]

    # orthogonality symmetry
    for _ in range(60):
        p = random_design(rng, POS, 3)
        n = random_design(rng, NEG, 3)
        assert orthogonal(p, n) == orthogonal(n, p)

    # antitonicity and the triple-orthogonal law
    for _ in range(10):
        e = [d for d in universe if rng.random() < 0.3]
        f = e + [d for d in universe if rng.random() < 0.2]
        if not e:
            continue
        oe, of = orthogonal_set(e, small), orthogonal_set(f, small)
        assert set(of) <= set(oe)
        assert orthogonal_set(orthogonal_set(oe, small.at(NEG)), small) == oe

    # incarnation idempotence and minimality (exhaustive at small bounds)
    b1 = behaviour([atomic_bomb(XI)], small)
    for d in members(b1):
        inc = incarnation_of(d, b1)
        assert incarnation_of(inc, b1) == inc
        for cand in enumerate_universe(small):
            if cand != inc and subdesign_order(cand, inc):
                assert any(orthogonal(cand, e) != "yes"
                           for e in b1.cached_orthogonal)

    # generator/validator agreement
    for k in range(150):
        base = POS if k % 2 == 0 else Pitchfork(XI, frozenset({(4,)}))
        assert validate_design(random_design(rng, base, 4)) == []

    # fax prefix-coherence across depths
    for depth in (1, 2, 3):
        shallow = build_fax(XI, (1,), depth, 1)
        deeper = build_fax(XI, (1,), depth + 1, 1)
        assert validate_design(shallow) == []
        assert _truncates_to(deeper, shallow, depth)

    report(11, True, "subject reduction (1,000 terms), orthogonality "
                     "symmetry, antitonicity, triple-orthogonal law, "
                     "incarnation idempotence/minimality, generator/"
                     "validator agreement, fax prefix-coherence")


def _truncates_to(deeper, shallow, k):
    """deeper's first k positive levels equal shallow (fid stubs below)."""
    from groundkit.designs import Design, FidLeaf, positive, star

    def truncate(d, k):
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

    return truncate(deeper, k) == shallow
