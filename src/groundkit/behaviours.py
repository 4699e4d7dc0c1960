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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .designs import (
    Address, DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode,
    Ramification, child, contains_daimon, star, subsets,
)
from .interaction import (
    DEFAULT_FUEL, VERDICT, BaseMismatch, dual_bases, join_used_parts,
    run_test,
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
    pool = bounds.pool
    budget = [bounds.cap]

    def spend(n: int):
        budget[0] -= n
        if budget[0] < 0:
            raise SizeLimitExceeded(f"universe exceeds cap {bounds.cap}")

    memo_pos: dict = {}
    memo_neg: dict = {}

    def positives(base_pos: frozenset[Address], depth: int) -> list[Design]:
        key = (base_pos, depth)
        if key in memo_pos:
            return memo_pos[key]
        base = Pitchfork(None, base_pos)
        out = [Design(base, DaimonLeaf()), Design(base, FidLeaf())]
        spend(2)
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
                            spend(1)
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
                        spend(1)
                        out.append(Design(base, NegNode(
                            focus, tuple(zip(keys, branch_designs)))))
        memo_neg[key] = out
        return out

    base = bounds.base
    if base.neg is None:
        return tuple(positives(base.pos, bounds.max_depth))
    return tuple(negatives(base.neg, base.pos, bounds.max_depth))


def count_universe(bounds: UniverseBounds) -> int:
    """Independent recursive count of the universe (no enumeration)."""
    pool = bounds.pool

    def count_pos(n_ctx_plus_focus: int, depth: int) -> int:
        # depends only on the number of base addresses
        total = 2
        if depth >= 1:
            for _ in range(n_ctx_plus_focus):        # choice of focus
                n_ctx = n_ctx_plus_focus - 1
                for ram in pool:
                    for assign in itertools.product(range(len(ram) + 1),
                                                    repeat=n_ctx):
                        prod = 1
                        for k in range(len(ram)):
                            n_here = sum(1 for s in assign if s == k)
                            prod *= count_neg(n_here, depth - 1)
                        total += prod
        return total

    def count_neg(n_ctx: int, depth: int) -> int:
        if depth < 1:
            return 0
        total = 0
        for n in range(len(pool) + 1):
            for keys in itertools.combinations(pool, n):
                prod = 1
                for I in keys:
                    prod *= count_pos(n_ctx + len(I), depth - 1)
                total += prod
        return total

    base = bounds.base
    if base.neg is None:
        return count_pos(len(base.pos), bounds.max_depth)
    return count_neg(len(base.pos), bounds.max_depth)


# ---------------------------------------------------------------------------
# orthogonal sets and behaviours


def _undecided(fuel: int) -> OutOfFuel:
    return OutOfFuel(f"fuel-exhausted: an orthogonality test needs more than "
                     f"{fuel} action pairs")


def orthogonal_set(E, bounds: UniverseBounds,
                   fuel: int = DEFAULT_FUEL) -> frozenset:
    """Bounded E^⊥ for designs E on bounds.base: the counter-tests on its
    dual bases (designs, or pairs for α⊢β) orthogonal to every design of E,
    which is tried in the order given.  ∅^⊥ is every counter-test."""
    E = list(E)
    if any(d.base != bounds.base for d in E):
        raise ValueError("orthogonal set requires designs on the bounds' base")
    universes = [enumerate_universe(bounds.at(p))
                 for p in dual_bases(bounds.base)]
    tests = universes[0] if len(universes) == 1 \
        else itertools.product(*universes)
    out = []
    for cand in tests:
        v = meet_verdicts(VERDICT[type(run_test(e, cand, fuel))] for e in E)
        if v == "unknown":
            raise _undecided(fuel)
        if v == "yes":
            out.append(cand)
    return frozenset(out)


def biorthogonal(E, bounds: UniverseBounds,
                 fuel: int = DEFAULT_FUEL) -> frozenset[Design]:
    """Bounded E^⊥⊥ on a one-address base."""
    dual = bounds.at(dual_bases(bounds.base)[0])
    return orthogonal_set(orthogonal_set(E, bounds, fuel), dual, fuel)


@dataclass(frozen=True)
class Behaviour:
    generators: frozenset[Design]
    bounds: UniverseBounds
    cached_orthogonal: frozenset         # designs, or pairs for α⊢β

    @property
    def base(self) -> Pitchfork:
        return self.bounds.base


def behaviour(generators, bounds: UniverseBounds,
              fuel: int = DEFAULT_FUEL) -> Behaviour:
    """The behaviour generated by designs on bounds.base."""
    gens = frozenset(generators)
    return Behaviour(gens, bounds, orthogonal_set(gens, bounds, fuel))


def meet_verdicts(verdicts) -> str:
    """'no' at the first 'no' (it outranks 'unknown', so the rest need not
    run), else 'unknown' if any verdict is, else 'yes'."""
    out = "yes"
    for v in verdicts:
        if v == "no":
            return "no"
        if v == "unknown":
            out = "unknown"
    return out


def _counter_tests(d: Design, b: Behaviour) -> frozenset:
    """The cached counter-tests of b, once d is known to sit on b's base."""
    if d.base != b.base:
        raise BaseMismatch(f"design on {d.base}, behaviour on {b.base}")
    return b.cached_orthogonal


def member_verdict(d: Design, b: Behaviour, fuel: int = DEFAULT_FUEL) -> str:
    """'yes' | 'no' | 'unknown': orthogonality to the cached orthogonal."""
    return meet_verdicts(VERDICT[type(run_test(d, e, fuel))]
                         for e in _counter_tests(d, b))


def members(b: Behaviour, fuel: int = DEFAULT_FUEL) -> frozenset[Design]:
    """The bounded membership set (the bounded bi-orthogonal)."""
    out = []
    for d in enumerate_universe(b.bounds):
        v = member_verdict(d, b, fuel)
        if v == "unknown":
            raise _undecided(fuel)
        if v == "yes":
            out.append(d)
    return frozenset(out)


def _test_run(d: Design, b: Behaviour, fuel: int) -> tuple[str, list]:
    """The cached counter-tests run on d up to the first 'no', as in
    member_verdict: their verdict and the results of the tests run."""
    results = []
    for e in _counter_tests(d, b):
        results.append(run_test(d, e, fuel))
        if VERDICT[type(results[-1])] == "no":
            break
    return meet_verdicts(VERDICT[type(r)] for r in results), results


def incarnation_of(d: Design, b: Behaviour,
                   fuel: int = DEFAULT_FUEL) -> Design:
    """The join of the parts of d used against every cached counter-test."""
    verdict, results = _test_run(d, b, fuel)
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
    verdict, results = _test_run(d, b, fuel)
    if verdict == "unknown":
        return CandidateVerdict("Unknown", "fuel")
    if verdict == "no":
        return CandidateVerdict("NotInBehaviour")
    if contains_daimon(d):
        return CandidateVerdict("PseudoGround", "contains-daimon")
    if d != join_used_parts(d, [r.trace for r in results]):
        return CandidateVerdict("PseudoGround", "not-material")
    return CandidateVerdict("Ground")
