"""Bounded design universes, orthogonal sets, behaviours, incarnation,
materiality, and ground-candidate classification.

A behaviour lives on the base of its bounds.  Its counter-tests sit on the
dual bases (`interaction.dual_bases`): one design for a one-address base,
a pair of designs on ⊢α and β⊢ for an arrow on α⊢β.  Every function here
serves both kinds.

Full bi-orthogonals are infinite; every closure computed here is scoped
to a declared UniverseBounds.  Within those bounds membership failure is
conclusive (a diverging counter-test exists); success is evidence
relative to the bounds.  A test that runs out of fuel leaves a bounded set
undecided, and computing that set raises OutOfFuel.

Orthogonals are computed against the ⊑-minimal designs only: a run against
a pruning d ⊑ d′ follows the run against d′ until it reaches a part that d
pruned, and diverges there, so every verdict, "unknown" included, is the
same and E^⊥ = (min E)^⊥ (Girard's monotonicity).

Runs are shared by branch.  Each net has one design on a negative
one-address base ζ⊢, its leaf, and an interaction reads the leaf only
through the branch that the action (ζ, I) selects.  So nets that differ in
their leaf only form a group (for an arrow, one design on ⊢α with every
design on β⊢), whose rest runs once; unless it stops uncut at ζ, its stop
is every leaf's verdict.  Otherwise the leaves, split by their branch I once
per ramification, resume the run with the fuel left once per distinct
branch (interned designs group by identity), and a leaf with no branch I
answers "no" without a run.  Each resumption is the run the whole net
makes, so every verdict, fuel included, is the one a run per net gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb

from .designs import (
    Address, DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode,
    Ramification, child, contains_daimon, star, subdesign_order, subsets,
)
from .interaction import (
    UNCUT, VERDICT, _parts, dual_bases, join_used_parts, listeners, run,
    run_closed,
)
from .sharing import DEFAULT_FUEL, Refusal


#: the most designs a universe may have before its enumeration is refused
UNIVERSE_CAP = 10 ** 6


class SizeLimitExceeded(Refusal):
    pass


class NotAMember(Refusal):
    pass


class OutOfFuel(Refusal):
    pass


@dataclass(frozen=True)
class UniverseBounds:
    max_depth: int                       # nesting of rule nodes; leaves free
    pool: tuple[Ramification, ...]       # admissible ramifications
    base: Pitchfork

    def __post_init__(self):
        object.__setattr__(self, "pool",
                           tuple(sorted(tuple(sorted(I)) for I in self.pool)))
        if self.max_depth < 1:
            raise Refusal("depth must be at least 1")
        if any(len(set(I)) != len(I) for I in self.pool) \
                or len(set(self.pool)) != len(self.pool):
            raise Refusal("the pool repeats an index or a ramification")

    def at(self, base: Pitchfork) -> "UniverseBounds":
        return UniverseBounds(self.max_depth, self.pool, base)


def full_pool(arity_bound: int) -> tuple[Ramification, ...]:
    """Every ramification drawn from {0..arity_bound}."""
    return tuple(subsets(range(arity_bound + 1)))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_universe(bounds: UniverseBounds) -> tuple[Design, ...]:
    """All valid designs on bounds.base within depth/ramification bounds.

    Discipline: negative branches inherit the full context; positive
    rules distribute each context address to one child or drop it.
    """
    if count_universe(bounds) > UNIVERSE_CAP:   # exact: the universe only
        raise SizeLimitExceeded(f"universe exceeds cap {UNIVERSE_CAP}")
    pool = bounds.pool
    memo_pos: dict = {}
    memo_neg: dict = {}

    def positives(base_pos: frozenset[Address], depth: int) -> list[Design]:
        key = (base_pos, depth)
        if key in memo_pos:
            return memo_pos[key]
        base = Pitchfork(None, base_pos)
        out = [Design(base, DaimonLeaf()), Design(base, FidLeaf())]
        if depth >= 1:
            for focus in sorted(base_pos):
                ctx = sorted(base_pos - {focus})
                for ram in pool:
                    # each context address goes to one child (by index into
                    # ram) or is dropped (value len(ram))
                    for assign in itertools.product(range(len(ram) + 1),
                                                    repeat=len(ctx)):
                        options = [negatives(child(focus, i), frozenset(
                            a for a, slot in zip(ctx, assign) if slot == k),
                            depth - 1) for k, i in enumerate(ram)]
                        out += (Design(base, PosNode(focus, ram, kids))
                                for kids in itertools.product(*options))
        memo_pos[key] = out
        return out

    def negatives(focus: Address, ctx: frozenset[Address],
                  depth: int) -> list[Design]:
        key = (focus, ctx, depth)
        if key in memo_neg:
            return memo_neg[key]
        out: list[Design] = []
        if depth >= 1:
            base = Pitchfork(focus, ctx)
            per_branch = {I: positives(ctx | star(focus, I), depth - 1)
                          for I in pool}
            for n in range(len(pool) + 1):
                for keys in itertools.combinations(pool, n):
                    for branch_designs in itertools.product(
                            *(per_branch[I] for I in keys)):
                        out.append(Design(base, NegNode(
                            focus, tuple(zip(keys, branch_designs)))))
        memo_neg[key] = out
        return out

    base = bounds.base
    try:
        if base.neg is None:
            return tuple(positives(base.pos, bounds.max_depth))
        return tuple(negatives(base.neg, base.pos, bounds.max_depth))
    finally:
        # positives and negatives refer to each other, a cycle that would
        # keep every design in the memos alive until the collector runs
        memo_pos.clear()
        memo_neg.clear()


def count_universe(bounds: UniverseBounds) -> int:
    """Independent recursive count of the universe (no enumeration)."""
    count = _count_pos if bounds.base.neg is None else _count_neg
    return count(bounds.pool, len(bounds.base.pos), bounds.max_depth)


@cache
def _count_pos(pool, n: int, depth: int) -> int:
    """Positive designs on a base of n addresses, whatever they are: the
    n − 1 beside the focus split over a ramification's slots, by count."""
    total = 2
    if depth >= 1 and n:
        for ram in pool:
            ways = [1] * n      # ways[m]: m given addresses over the slots
            for _ in ram:       # so far, the dropped one first
                ways = [sum(comb(m, k) * _count_neg(pool, k, depth - 1)
                            * ways[m - k] for k in range(m + 1))
                        for m in range(n)]
            total += n * ways[n - 1]
    return total


@cache
def _count_neg(pool, n: int, depth: int) -> int:
    """Negative designs with a context of n addresses."""
    if depth < 1:
        return 0
    total = 1             # each I of the pool: no branch, or one of U(n + |I|)
    for I in pool:
        total *= 1 + _count_pos(pool, n + len(I), depth - 1)
    return total


# ---------------------------------------------------------------------------
# orthogonal sets and behaviours


def _undecided(fuel: int) -> OutOfFuel:
    return OutOfFuel(f"fuel-exhausted: an orthogonality test needs more than "
                     f"{fuel} action pairs")


def orthogonal_set(E, bounds: UniverseBounds,
                   fuel: int = DEFAULT_FUEL) -> tuple:
    """Bounded E^⊥ for designs E on bounds.base: the counter-tests on its
    dual bases (designs, or pairs for α⊢β) orthogonal to every design of E,
    tried against its ⊑-minimal ones only, in universe (for pairs, product)
    order.  ∅^⊥ is every counter-test."""
    E = list(E)
    if any(d.base != bounds.base for d in E):
        raise ValueError("orthogonal set requires designs on the bounds' base")
    universes = [enumerate_universe(bounds.at(p))
                 for p in dual_bases(bounds.base)]
    if len(universes) == 1:
        return tuple(_passing(universes[0], _minimal(E), fuel))
    # the pairs (a, b) for one a are a group, the leaves b all of β⊢
    left, right = universes
    return tuple(itertools.compress(itertools.product(left, right), _verdicts(
        _minimal(E), [((a,), right) for a in left], True, fuel)))


def _minimal(E: list[Design]) -> list[Design]:
    """The ⊑-minimal designs of E, all on one base, in the order they first
    appear.  The least design of the base (Fid, or ξ⊢'s branchless node)
    prunes every other: if E holds it, it is the answer."""
    if E and (least := Design(E[0].base, FidLeaf() if E[0].base.neg is None
                              else NegNode(E[0].base.neg, ()))) in E:
        return [least]
    kept: list[Design] = []
    for d in E:
        if not any(subdesign_order(m, d) for m in kept):
            kept = [m for m in kept if not subdesign_order(d, m)] + [d]
    return kept


@dataclass(frozen=True)
class Behaviour:
    generators: frozenset[Design]
    bounds: UniverseBounds
    cached_orthogonal: tuple     # designs, or pairs for α⊢β; universe order

    @property
    def base(self) -> Pitchfork:
        return self.bounds.base


def behaviour(generators, bounds: UniverseBounds,
              fuel: int = DEFAULT_FUEL) -> Behaviour:
    """The behaviour generated by designs on bounds.base; its
    counter-tests are tried on the ⊑-minimal generators only."""
    gens = list(generators)
    return Behaviour(frozenset(gens), bounds,
                     orthogonal_set(gens, bounds, fuel))


def _test_run(d, tests, fuel: int) -> tuple[str, list]:
    """The tests run on d up to the first 'no' (either side may be a pair):
    'no' at a 'no', else 'unknown' if a test ran out of fuel, else 'yes',
    and the results of the tests run."""
    verdict, results, d = "yes", [], _parts(d)
    for e in tests:
        results.append(result := run_closed(d + _parts(e), fuel))
        v = VERDICT[result.reason]
        if v == "no":
            return v, results
        if v == "unknown":
            verdict = v
    return verdict, results


def _passing(candidates, tests, fuel: int) -> list:
    """The candidates that pass every test, in their order; OutOfFuel if one
    fails no test and some test on it is undecided.  Either side may hold
    pairs: the leaf, on ζ⊢, is the last design of one side's items, and
    consecutive items with the same rest form a group (a behaviour's pairs
    come in product order)."""
    candidates, tests = list(candidates), list(tests)
    if not (candidates and tests):
        return candidates if not tests else []
    flip = bool(_parts(tests[0])[-1].base.pos)
    groups = [(rest, [x[-1] for x in xs]) for rest, xs in itertools.groupby(
        map(_parts, candidates if flip else tests), lambda x: x[:-1])]
    return list(itertools.compress(candidates, _verdicts(
        tests if flip else candidates, groups, flip, fuel)))


def _verdicts(fixed, groups, flip: bool, fuel: int) -> list[bool]:
    """Whether each candidate passes every test; OutOfFuel if one fails no
    test and some test on it is undecided.  One side's items are `fixed`,
    the other's come as groups (rest, leaves) of the items rest + (h,) for
    h in leaves.  The candidates are the fixed items, or with `flip` the
    grouped ones in group order.  The runs share their prefixes (see the
    module docstring)."""
    status = ["yes"] * (sum(len(g[1]) for g in groups) if flip else len(fixed))
    splits: dict = {}   # (leaves, ram) -> [(branch, first leaf, offsets)]
    for i, f in enumerate(fixed):
        hi = 0
        for rest, leaves in groups:
            # the candidates at stake: the group's leaves, or f
            lo, hi = (hi, hi + len(leaves)) if flip else (i, i + 1)
            if (failed := status[lo:hi].count("no")) == hi - lo:
                continue
            net = _parts(f) + rest
            env = listeners(net)
            reason, last, left = run(next(d for d in net if d.base.neg is None),
                                     env, fuel)
            if reason == UNCUT:
                ram = last.node.ramification
                if (key := (id(leaves), ram)) not in splits:
                    split: dict = {}
                    for p, b in enumerate([h.node.branch_map().get(ram)
                                           for h in leaves]):
                        split.setdefault(b, []).append(p)
                    splits[key] = [(b, ps[0], ps if flip else [0])
                                   for b, ps in split.items()]
                parts = splits[key]
            else:                   # the stop is every leaf's verdict
                parts = [(None, 0, range(hi - lo))]
            for branch, first, offsets in parts:
                if not flip and status[i] == "no":
                    break           # f has failed a test
                if failed and all(status[lo + o] == "no" for o in offsets):
                    continue        # so has every candidate at stake
                v = VERDICT[reason] if reason != UNCUT \
                    else "no" if branch is None else VERDICT[run(
                        last, env | {last.node.focus: leaves[first]}, left)[0]]
                if v != "yes":
                    for o in offsets:
                        if status[lo + o] != "no":
                            status[lo + o] = v
    if "unknown" in status:
        raise _undecided(fuel)
    return [v == "yes" for v in status]


def members(b: Behaviour, fuel: int = DEFAULT_FUEL) -> frozenset[Design]:
    """The bounded membership set (the bounded bi-orthogonal)."""
    return frozenset(_passing(enumerate_universe(b.bounds),
                              b.cached_orthogonal, fuel))


def free_incarnation(b: Behaviour,
                     fuel: int = DEFAULT_FUEL) -> frozenset[Design]:
    """b's †-free material members: its †-free ⊑-minimal members, since
    members are upward-closed in ⊑ and |d| ⊑ d is a member."""
    return frozenset(d for d in _minimal(_passing(
        enumerate_universe(b.bounds), b.cached_orthogonal, fuel))
        if not contains_daimon(d))


def incarnation_of(d: Design, b: Behaviour,
                   fuel: int = DEFAULT_FUEL) -> Design:
    """The join of the parts of d used against every cached counter-test."""
    if d.base != b.base:
        raise NotAMember(f"design on {d.base}, behaviour on {b.base}")
    verdict, results = _test_run(d, b.cached_orthogonal, fuel)
    if verdict == "no":
        raise NotAMember("incarnation is defined for members only")
    if verdict == "unknown":
        raise _undecided(fuel)
    return join_used_parts(d, [r.trace for r in results])


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class CandidateVerdict:
    tag: str                         # Ground | PseudoGround | NotInBehaviour | Unknown
    reason: str = ""

    def __str__(self):
        return f"{self.tag}({self.reason})" if self.reason else self.tag


def classify_candidate(d: Design, b: Behaviour,
                       fuel: int = DEFAULT_FUEL) -> CandidateVerdict:
    """Ground iff member, †-free and material; pseudo-ground otherwise.
    Each counter-test runs once: its result gives both the verdict and the
    part of d it used."""
    if d.base != b.base:
        return CandidateVerdict("NotInBehaviour", "base mismatch")
    verdict, results = _test_run(d, b.cached_orthogonal, fuel)
    if verdict == "unknown":
        return CandidateVerdict("Unknown", "fuel")
    if verdict == "no":
        return CandidateVerdict("NotInBehaviour")
    if contains_daimon(d):
        return CandidateVerdict("PseudoGround", "contains-daimon")
    if d != join_used_parts(d, [r.trace for r in results]):
        return CandidateVerdict("PseudoGround", "not-material")
    return CandidateVerdict("Ground")
