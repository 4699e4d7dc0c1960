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
through the branch that the action (ζ, I) selects.  So the rest of the net
runs once; unless it stops uncut at ζ, its stop is every leaf's verdict.
Otherwise the run resumes with the fuel left once per distinct branch I
(interned designs group by identity), and a leaf with no branch I answers
"no" without a run.  Each resumption is the run the whole net makes, so
every verdict, fuel included, is the one a run per net gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .designs import (
    Address, DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode,
    Ramification, child, contains_daimon, star, subdesign_order, subsets,
)
from .interaction import (
    DEFAULT_FUEL, UNCUT, VERDICT, BaseMismatch, _parts, dual_bases,
    join_used_parts, listeners, run, run_closed,
)


class SizeLimitExceeded(ValueError):
    pass


class NotAMember(Exception):
    pass


class OutOfFuel(ValueError):
    pass


@dataclass(frozen=True)
class UniverseBounds:
    max_depth: int                       # nesting of rule nodes; leaves free
    pool: tuple[Ramification, ...]       # admissible ramifications
    base: Pitchfork
    cap: int = 10 ** 6

    def __post_init__(self):
        object.__setattr__(self, "pool",
                           tuple(sorted(tuple(sorted(I)) for I in self.pool)))
        if self.max_depth < 1:
            raise ValueError("depth must be at least 1")
        if any(len(set(I)) != len(I) for I in self.pool) \
                or len(set(self.pool)) != len(self.pool):
            raise ValueError("the pool repeats an index or a ramification")

    def at(self, base: Pitchfork) -> "UniverseBounds":
        return UniverseBounds(self.max_depth, self.pool, base, self.cap)


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
    if count_universe(bounds) > bounds.cap:     # exact: the universe only
        raise SizeLimitExceeded(f"universe exceeds cap {bounds.cap}")
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
                        groups = {i: frozenset(
                            a for a, slot in zip(ctx, assign) if slot == k)
                            for k, i in enumerate(ram)}
                        options = [
                            negatives(child(focus, i),
                                      frozenset(groups[i]), depth - 1)
                            for i in ram]
                        if any(not o for o in options):
                            continue
                        for kids in itertools.product(*options):
                            out.append(Design(
                                base, PosNode(focus, ram, tuple(kids))))
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
    """Positive designs on a base of n addresses, whatever they are."""
    total = 2
    if depth >= 1:
        for _ in range(n):                           # choice of focus
            for ram in pool:
                for assign in itertools.product(range(len(ram) + 1),
                                                repeat=n - 1):
                    prod = 1
                    for k in range(len(ram)):
                        prod *= _count_neg(pool, assign.count(k), depth - 1)
                    total += prod
    return total


@cache
def _count_neg(pool, n: int, depth: int) -> int:
    """Negative designs with a context of n addresses."""
    if depth < 1:
        return 0
    total = 0
    for size in range(len(pool) + 1):
        for keys in itertools.combinations(pool, size):
            prod = 1
            for I in keys:
                prod *= _count_pos(pool, n + len(I), depth - 1)
            total += prod
    return total


# ---------------------------------------------------------------------------
# orthogonal sets and behaviours


def _undecided(fuel: int) -> OutOfFuel:
    return OutOfFuel(f"fuel-exhausted: an orthogonality test needs more than "
                     f"{fuel} action pairs")


def orthogonal_set(E, bounds: UniverseBounds,
                   fuel: int = DEFAULT_FUEL) -> frozenset:
    """Bounded E^⊥ for designs E on bounds.base: the counter-tests on its
    dual bases (designs, or pairs for α⊢β) orthogonal to every design of E,
    tried against its ⊑-minimal ones only.  ∅^⊥ is every counter-test."""
    return frozenset(_orthogonal(E, bounds, fuel))


def _orthogonal(E, bounds: UniverseBounds, fuel: int) -> tuple:
    """orthogonal_set's counter-tests in universe (for pairs, product) order."""
    E = list(E)
    if any(d.base != bounds.base for d in E):
        raise ValueError("orthogonal set requires designs on the bounds' base")
    universes = [enumerate_universe(bounds.at(p))
                 for p in dual_bases(bounds.base)]
    tests = universes[0] if len(universes) == 1 \
        else itertools.product(*universes)
    return tuple(_passing(tests, _minimal(E), fuel))


def _minimal(E: list[Design]) -> list[Design]:
    """The ⊑-minimal designs of E, in the order they first appear."""
    kept: list[Design] = []
    for d in E:
        if not any(subdesign_order(m, d) for m in kept):
            kept = [m for m in kept if not subdesign_order(d, m)] + [d]
    return kept


def biorthogonal(E, bounds: UniverseBounds,
                 fuel: int = DEFAULT_FUEL) -> frozenset[Design]:
    """Bounded E^⊥⊥ on a one-address base."""
    dual = bounds.at(dual_bases(bounds.base)[0])
    return orthogonal_set(orthogonal_set(E, bounds, fuel), dual, fuel)


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
    return Behaviour(frozenset(gens), bounds, _orthogonal(gens, bounds, fuel))


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
    pairs; the runs share their prefixes (see the module docstring)."""
    candidates, tests = list(candidates), list(tests)
    if not (candidates and tests):
        return candidates if not tests else []
    # the leaf, on ζ⊢, is the last design of the items of one side, whose
    # positions are grouped by the rest of their items
    flip = bool(_parts(tests[0])[-1].base.pos)
    fixed, varied = (tests, candidates) if flip else (candidates, tests)
    groups: dict = {}
    for n, x in enumerate(map(_parts, varied)):
        groups.setdefault(x[:-1], {})[n] = x[-1]
    status = ["yes"] * len(candidates)
    for i, f in enumerate(fixed):
        for rest, leaves in groups.items():
            if not flip and status[i] == "no":
                break
            if flip and all(status[n] == "no" for n in leaves):
                continue
            net = _parts(f) + rest
            env = listeners(net)
            reason, last, left = run(next(d for d in net if d.base.neg is None),
                                     env, fuel)
            by_branch = {None: "no"}
            for n, h in leaves.items():
                m = n if flip else i            # the candidate at stake
                if status[m] == "no":
                    continue
                if reason != UNCUT:
                    v = VERDICT[reason]
                else:
                    branch = h.node.branch_map().get(last.node.ramification)
                    if branch not in by_branch:
                        by_branch[branch] = VERDICT[
                            run(last, env | {h.base.neg: h}, left)[0]]
                    v = by_branch[branch]
                if v != "yes":
                    status[m] = v
    if "unknown" in status:
        raise _undecided(fuel)
    return [c for c, v in zip(candidates, status) if v == "yes"]


def _counter_tests(d: Design, b: Behaviour) -> tuple:
    """The cached counter-tests of b, once d is known to sit on b's base."""
    if d.base != b.base:
        raise BaseMismatch(f"design on {d.base}, behaviour on {b.base}")
    return b.cached_orthogonal


def member_verdict(d: Design, b: Behaviour, fuel: int = DEFAULT_FUEL) -> str:
    """'yes' | 'no' | 'unknown': orthogonality to the cached orthogonal."""
    return _test_run(d, _counter_tests(d, b), fuel)[0]


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
    verdict, results = _test_run(d, _counter_tests(d, b), fuel)
    if verdict == "no":
        raise NotAMember("incarnation is defined for members only")
    if verdict == "unknown":
        raise _undecided(fuel)
    return join_used_parts(d, [r.trace for r in results])


def is_material(d: Design, b: Behaviour, fuel: int = DEFAULT_FUEL) -> bool:
    return d == incarnation_of(d, b, fuel)


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
