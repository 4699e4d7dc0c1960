"""Bounded design universes, orthogonal sets, behaviours, incarnation,
materiality, and ground-candidate classification.

Full bi-orthogonals are infinite; every closure computed here is scoped
to a declared UniverseBounds.  Within those bounds membership failure is
conclusive (a diverging counter-test exists); success is evidence
relative to the bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .designs import (
    Address, DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode,
    Ramification, child, contains_daimon, star, subsets,
)
from .interaction import (
    DEFAULT_FUEL, Converged, join_used_parts, orthogonal, run_closed,
)


class SizeLimitExceeded(Exception):
    pass


class NotAMember(Exception):
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


def dual_base(p: Pitchfork) -> Pitchfork:
    """⊢ξ ↔ ξ⊢ for single-address bases (the only duality used here)."""
    if p.neg is None and len(p.pos) == 1:
        return Pitchfork(next(iter(p.pos)), frozenset())
    if p.neg is not None and not p.pos:
        return Pitchfork(None, frozenset({p.neg}))
    raise ValueError(f"base {p} has no single-address dual")


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


def orthogonal_set(E, bounds: UniverseBounds, fuel: int = DEFAULT_FUEL,
                   warnings: list | None = None) -> frozenset[Design]:
    """Bounded E^⊥: the universe of the dual base filtered by orthogonality.

    Fuel-exhausted candidates are excluded; each exclusion is appended to
    `warnings` when a sink is given.
    """
    E = list(E)
    if not E:
        raise ValueError("orthogonal of an empty set is unbounded")
    bases = {d.base for d in E}
    if len(bases) > 1:
        raise ValueError("orthogonal set requires a common base")
    universe = enumerate_universe(bounds.at(dual_base(E[0].base)))
    out = []
    for cand in universe:
        verdicts = [orthogonal(cand, e, fuel) for e in E]
        if all(v == "yes" for v in verdicts):
            out.append(cand)
        elif "unknown" in verdicts and warnings is not None:
            warnings.append(cand)
    return frozenset(out)


def biorthogonal(E, bounds: UniverseBounds,
                 fuel: int = DEFAULT_FUEL) -> frozenset[Design]:
    """Bounded E^⊥⊥ on the original base."""
    return orthogonal_set(orthogonal_set(E, bounds, fuel), bounds, fuel)


@dataclass(frozen=True)
class Behaviour:
    generators: frozenset[Design]
    bounds: UniverseBounds
    cached_orthogonal: frozenset[Design] = field(default=None)  # type: ignore

    @property
    def base(self) -> Pitchfork:
        return next(iter(self.generators)).base


def behaviour(generators, bounds: UniverseBounds,
              fuel: int = DEFAULT_FUEL) -> Behaviour:
    gens = frozenset(generators)
    if not gens:
        raise ValueError("a behaviour needs at least one generator")
    bases = {d.base for d in gens}
    if len(bases) > 1:
        raise ValueError("generators must share one base")
    orth = orthogonal_set(gens, bounds, fuel)
    return Behaviour(gens, bounds, orth)


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


def member_verdict(d: Design, b: Behaviour, fuel: int = DEFAULT_FUEL) -> str:
    """'yes' | 'no' | 'unknown': orthogonality to the cached orthogonal."""
    return meet_verdicts(orthogonal(d, e, fuel) for e in b.cached_orthogonal)


def members(b: Behaviour, fuel: int = DEFAULT_FUEL) -> frozenset[Design]:
    """The bounded membership set (the bounded bi-orthogonal)."""
    universe = enumerate_universe(b.bounds.at(b.base))
    return frozenset(d for d in universe
                     if member_verdict(d, b, fuel) == "yes")


def _bottom_pruning(d: Design) -> Design:
    match d.node:
        case NegNode(focus, _):
            return Design(d.base, NegNode(focus, ()))
        case DaimonLeaf():
            return d
        case _:
            return Design(d.base, FidLeaf())


def incarnation_of(d: Design, b: Behaviour,
                   fuel: int = DEFAULT_FUEL) -> Design:
    """The join of the parts of d used against every cached counter-design."""
    if member_verdict(d, b, fuel) != "yes":
        raise NotAMember("incarnation is defined for members only")
    traces = []
    for e in b.cached_orthogonal:      # on the dual base, as member_verdict saw
        out = run_closed((d, e), fuel)
        assert isinstance(out, Converged)
        traces.append(out.trace)
    if not traces:
        return _bottom_pruning(d)
    return join_used_parts(d, traces)


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
    """Ground iff member, †-free and material; pseudo-ground otherwise."""
    if d.base != b.base:
        return CandidateVerdict("NotInBehaviour", "base mismatch")
    verdict = member_verdict(d, b, fuel)
    if verdict == "unknown":
        return CandidateVerdict("Unknown", "fuel")
    if verdict == "no":
        return CandidateVerdict("NotInBehaviour")
    if contains_daimon(d):
        return CandidateVerdict("PseudoGround", "contains-daimon")
    if not is_material(d, b, fuel):
        return CandidateVerdict("PseudoGround", "not-material")
    return CandidateVerdict("Ground")
