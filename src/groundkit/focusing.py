"""Polarized formulas, clustered rules, focused proof search, and the
conversion between clustered derivations and games/strategies.

The fragment is ⊗/⊕ with duals ⅋/&, their units 1/0 and ⊥/⊤, and
atoms.  `CONNECTIVES` states each connective once: its polarity, dual,
sign and shape, from which `polarity`, `dual`, `pretty` and the one
cluster decomposition, `_alternatives`, run for both polarities.  A unit
is a connective with no parts, so an additive unit (0, ⊤) offers no
alternative and a multiplicative one (1, ⊥) offers one empty alternative.
Polarized formulas are hash-consed on `sharing.Syntax`, the one base that
interns ground terms, formulas and polarized formulas alike, and these
walkers keep their own stacks, so a formula of any depth can be read.
Search is two-phase: decompose the (at most one) negative formula
exhaustively, then commit to a positive focus with backtracking over
additive choices and context splits.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from dataclasses import dataclass

from .sharing import Syntax, fold


# ---------------------------------------------------------------------------
# polarized formulas


class PolarizedFormula(Syntax):
    """A polarized formula; each subclass is a connective of CONNECTIVES,
    its fields in `__slots__`."""

    __slots__ = ()


class PosAtom(PolarizedFormula):
    __slots__ = __match_args__ = ("name",)


class NegAtom(PolarizedFormula):
    __slots__ = __match_args__ = ("name",)


class Tensor(PolarizedFormula):
    __slots__ = __match_args__ = ("left", "right")


class Plus(PolarizedFormula):
    __slots__ = __match_args__ = ("left", "right")


class Par(PolarizedFormula):
    __slots__ = __match_args__ = ("left", "right")


class With(PolarizedFormula):
    __slots__ = __match_args__ = ("left", "right")


class One(PolarizedFormula):
    __slots__ = __match_args__ = ()


class Zero(PolarizedFormula):
    __slots__ = __match_args__ = ()


class Top(PolarizedFormula):
    __slots__ = __match_args__ = ()


class Bottom(PolarizedFormula):
    __slots__ = __match_args__ = ()


Connective = namedtuple("Connective", "polarity dual sign shape")

#: each polarized connective once: its polarity (pos | neg), its dual, its
#: sign (a unit's text, a binary connective's infix, or what follows an
#: atom's name) and its shape (atom | additive | multiplicative).  An
#: additive (⊕, &) offers each alternative of each part, so its unit (0, ⊤)
#: offers none; a multiplicative (⊗, ⅋) joins one alternative of each part,
#: so its unit (1, ⊥) offers one empty alternative.
CONNECTIVES = {
    PosAtom: Connective("pos", NegAtom, "", "atom"),
    NegAtom: Connective("neg", PosAtom, "⊥", "atom"),
    Tensor: Connective("pos", Par, "⊗", "multiplicative"),
    Par: Connective("neg", Tensor, "⅋", "multiplicative"),
    Plus: Connective("pos", With, "⊕", "additive"),
    With: Connective("neg", Plus, "&", "additive"),
    One: Connective("pos", Bottom, "1", "multiplicative"),
    Bottom: Connective("neg", One, "⊥", "multiplicative"),
    Zero: Connective("pos", Top, "0", "additive"),
    Top: Connective("neg", Zero, "⊤", "additive"),
}


def polarity(f: PolarizedFormula) -> str:
    return CONNECTIVES[type(f)].polarity


def dual(f: PolarizedFormula) -> PolarizedFormula:
    def enter(f):
        c = CONNECTIVES[type(f)]
        if c.shape == "atom":
            return None, c.dual(f.name), ()
        return (lambda parts: c.dual(*parts)), list(f._key), \
            range(len(f._key))
    return fold(f, enter)


def pretty(f: PolarizedFormula) -> str:
    def enter(f):
        c = CONNECTIVES[type(f)]
        if c.shape == "atom":
            return None, f.name + c.sign, ()
        return (lambda parts: f"({f' {c.sign} '.join(parts)})" if parts
                else c.sign), list(f._key), range(len(f._key))
    return fold(f, enter)


Sequent = tuple[PolarizedFormula, ...]


# ---------------------------------------------------------------------------
# cluster decompositions


def _compound(f: PolarizedFormula, pol: str) -> bool:
    """Whether f is a connective, not an atom, of polarity pol."""
    c = CONNECTIVES[type(f)]
    return c.polarity == pol and c.shape != "atom"


def _alternatives(f: PolarizedFormula, pol: str) \
        -> list[list[PolarizedFormula]]:
    """Leaf-lists of the cluster of polarity pol rooted at f: an atom or a
    formula of the other polarity is a leaf."""
    def enter(f):
        if not _compound(f, pol):
            return None, [[f]], ()
        join = _sum if CONNECTIVES[type(f)].shape == "additive" else _product
        return join, list(f._key), range(len(f._key))
    return fold(f, enter)


def _sum(parts: list) -> list:
    return [leaves for alts in parts for leaves in alts]


def _product(parts: list) -> list:
    return [[x for leaves in pick for x in leaves]
            for pick in itertools.product(*parts)]


def negative_branches(f: PolarizedFormula) -> list[list[PolarizedFormula]]:
    """Premise leaf-lists of the generalized negative rule focused on f."""
    return _alternatives(f, "neg")


def positive_alternatives(f: PolarizedFormula) \
        -> list[list[list[PolarizedFormula]]]:
    """Alternatives of the generalized positive rule focused on f.

    Each alternative is a list of premise groups; each group's leaves
    must land in one premise sequent.
    """
    return [[[x] for x in leaves] for leaves in _alternatives(f, "pos")]


def cluster_leaves(groups: list[list[PolarizedFormula]]) \
        -> tuple[PolarizedFormula, ...]:
    return tuple(f for g in groups for f in g)


# ---------------------------------------------------------------------------
# clustered derivations


@dataclass(frozen=True)
class ClusteredDerivation:
    sequent: Sequent
    rule: str                        # axiom | daimon | neg-cluster | pos-cluster
    focus: PolarizedFormula | None = None
    selections: tuple[tuple[PolarizedFormula, ...], ...] = ()
    children: tuple["ClusteredDerivation", ...] = ()


def _negatives(seq: Sequent) -> list[PolarizedFormula]:
    return [f for f in seq if _compound(f, "neg")]


def _remove_one(seq: Sequent, f: PolarizedFormula) -> Sequent:
    out = list(seq)
    out.remove(f)
    return tuple(out)


def _axiom_pair(seq: Sequent) -> bool:
    if len(seq) != 2:
        return False
    a, b = seq
    return dual(a) == b and isinstance(a, (PosAtom, NegAtom))


def _splits(ctx: Sequent, k: int):
    """All ways to distribute the context formulas over k premises."""
    if k == 0:
        if not ctx:
            yield ()
        return
    for assign in itertools.product(range(k), repeat=len(ctx)):
        parts = [[] for _ in range(k)]
        for f, slot in zip(ctx, assign):
            parts[slot].append(f)
        yield tuple(tuple(p) for p in parts)


def focused_search(seq: Sequent, daimon_mode: bool = False,
                   ) -> ClusteredDerivation | None:
    """Andreoli-style search returning the first derivation found under a
    deterministic exploration order."""
    seq = tuple(seq)

    negs = _negatives(seq)
    if negs:
        focus = negs[0]
        ctx = _remove_one(seq, focus)
        branches = negative_branches(focus)
        children = []
        for leaves in branches:
            sub = focused_search(ctx + tuple(leaves), daimon_mode)
            if sub is None:
                return _give_up(seq, daimon_mode)
            children.append(sub)
        return ClusteredDerivation(seq, "neg-cluster", focus,
                                   tuple(map(tuple, branches)), tuple(children))

    if _axiom_pair(seq):
        return ClusteredDerivation(seq, "axiom")

    def refocus_debt(premise: Sequent) -> int:
        """Positive compounds that would have to be refocused immediately,
        breaking move alternation in the extracted games."""
        if _axiom_pair(premise) or _negatives(premise):
            return 0
        return sum(1 for f in premise if _compound(f, "pos"))

    fallback = None
    for focus in seq:
        if not _compound(focus, "pos"):
            continue
        ctx = _remove_one(seq, focus)
        for groups in positive_alternatives(focus):
            splits = sorted(
                _splits(ctx, len(groups)),
                key=lambda sp: sum(refocus_debt(tuple(g) + part)
                                   for g, part in zip(groups, sp)))
            for split in splits:
                children = []
                ok = True
                for g, part in zip(groups, split):
                    sub = focused_search(tuple(g) + part, False)
                    if sub is None:
                        ok = False
                        break
                    children.append(sub)
                if ok:
                    sels = tuple(tuple(g) for g in groups)
                    found = ClusteredDerivation(seq, "pos-cluster", focus,
                                                sels, tuple(children))
                    # prefer a derivation whose games alternate; keep the
                    # first success as a fallback for forced double foci
                    if not validate_strategy(derivation_to_strategy(found)):
                        return found
                    fallback = fallback or found
    if fallback is not None:
        return fallback
    return _give_up(seq, daimon_mode)


def _give_up(seq: Sequent, daimon_mode: bool):
    return ClusteredDerivation(seq, "daimon") if daimon_mode else None


def validate_derivation(d: ClusteredDerivation) -> list[str]:
    """Re-check a derivation against the cluster schemas."""
    problems = []

    def walk(d, path):
        ctx = Counter(d.sequent) - Counter([d.focus])
        if d.rule.endswith("-cluster"):
            if d.focus not in d.sequent:
                problems.append(f"{path}: focus is not in the sequent")
            if len(d.children) != len(d.selections):
                problems.append(f"{path}: not one premise per selection")
        match d.rule:
            case "axiom":
                if not _axiom_pair(d.sequent):
                    problems.append(f"{path}: not a dual atom pair")
            case "daimon":
                pass
            case "neg-cluster":
                want = negative_branches(d.focus)
                if [list(s) for s in d.selections] != want:
                    problems.append(f"{path}: branch selections do not match "
                                    "the negative decomposition")
                for i, (sel, c) in enumerate(zip(d.selections, d.children)):
                    if Counter(c.sequent) != ctx + Counter(sel):
                        problems.append(f"{path}.{i}: premise sequent mismatch")
                    walk(c, f"{path}.{i}")
            case "pos-cluster":
                if list(d.selections) not in \
                        [[tuple(g) for g in alt]
                         for alt in positive_alternatives(d.focus)]:
                    problems.append(f"{path}: selections are not an "
                                    "alternative of the focus")
                got = Counter()              # the premises less their leaves
                for i, (sel, c) in enumerate(zip(d.selections, d.children)):
                    if Counter(sel) - Counter(c.sequent):
                        problems.append(f"{path}.{i}: premise misses a "
                                        "selected leaf")
                    got += Counter(c.sequent) - Counter(sel)
                    walk(c, f"{path}.{i}")
                if got != ctx:
                    problems.append(f"{path}: context is not split among "
                                    "the premises")
            case _:
                problems.append(f"{path}: unknown rule")
    walk(d, "root")
    return problems


# ---------------------------------------------------------------------------
# games and strategies


Move = tuple[PolarizedFormula, frozenset[PolarizedFormula]]
Game = tuple[Move, ...]
Strategy = frozenset[Game]


def validate_game(g: Game) -> list[str]:
    if not g:
        return ["a game is a non-empty sequence"]
    problems = []
    for i in range(1, len(g)):
        if polarity(g[i][0]) == polarity(g[i - 1][0]):
            problems.append(f"moves {i-1} and {i} have equal polarity")
        if polarity(g[i][0]) == "neg" and g[i][0] not in g[i - 1][1]:
            problems.append(f"negative move {i} is not among the previous "
                            "move's choices")
    foci = [m[0] for m in g]
    if len(set(foci)) != len(foci):
        problems.append("two distinct moves share a focus")
    return problems


def validate_strategy(s: Strategy) -> list[str]:
    problems = []
    for g in s:
        problems += validate_game(g)
        for k in range(1, len(g)):
            if g[:k] not in s:
                problems.append("strategy is not prefix-closed")
    return problems


def derivation_to_strategy(d: ClusteredDerivation) -> Strategy:
    """One game per root-to-leaf branch, each cluster read as a move."""
    games: set[Game] = set()

    def walk(d, prefix: Game):
        match d.rule:
            case "axiom" | "daimon":
                if prefix:
                    games.add(prefix)
            case "neg-cluster":
                for sel, c in zip(d.selections, d.children):
                    walk(c, prefix + ((d.focus, frozenset(sel)),))
            case "pos-cluster":
                move = (d.focus, frozenset(cluster_leaves(d.selections)))
                if not d.children:
                    games.add(prefix + (move,))
                for c in d.children:
                    walk(c, prefix + (move,))
    walk(d, ())
    return frozenset(g[:k] for g in games for k in range(1, len(g) + 1))


class StrategyConversionError(Exception):
    pass


def strategy_to_derivation(s: Strategy, seq: Sequent) -> ClusteredDerivation:
    """Reassemble the clustered derivation whose games are exactly s."""
    if not s:
        raise StrategyConversionError("empty strategy (games are non-empty)")
    problems = validate_strategy(s)
    if problems:
        raise StrategyConversionError("; ".join(sorted(set(problems))))

    def build(seq: Sequent, prefix: Game) -> ClusteredDerivation:
        # the moves after prefix whose focus lives in this premise (sibling
        # premises of a positive cluster share the prefix), in no order:
        # build wants one focus, then one positive move or every branch
        n = len(prefix)
        moves = {g[n] for g in s if len(g) > n and g[:n] == prefix
                 and g[n][0] in seq}
        if not moves:
            if _axiom_pair(seq):
                return ClusteredDerivation(seq, "axiom")
            raise StrategyConversionError(
                f"games end at a sequent that is not an axiom: {seq}")
        foci = {m[0] for m in moves}
        if len(foci) != 1:
            raise StrategyConversionError(
                "conflicting moves: distinct focuses after one prefix")
        focus = next(iter(foci))
        ctx = _remove_one(seq, focus)
        if polarity(focus) == "neg":
            want = negative_branches(focus)
            offered = {m[1] for m in moves}
            if offered != {frozenset(b) for b in want}:
                raise StrategyConversionError(
                    "negative move choices do not cover the decomposition")
            children = []
            for leaves in want:
                move = (focus, frozenset(leaves))
                children.append(build(ctx + tuple(leaves), prefix + (move,)))
            return ClusteredDerivation(
                seq, "neg-cluster", focus,
                tuple(tuple(b) for b in want), tuple(children))
        if len(moves) != 1:
            raise StrategyConversionError(
                "conflicting positive moves after one prefix")
        move, = moves
        for groups in positive_alternatives(focus):
            if frozenset(cluster_leaves(groups)) != move[1]:
                continue
            for split in _splits(ctx, len(groups)):
                try:
                    children = [build(tuple(g) + part, prefix + (move,))
                                for g, part in zip(groups, split)]
                except StrategyConversionError:
                    continue
                return ClusteredDerivation(
                    seq, "pos-cluster", focus,
                    tuple(tuple(g) for g in groups), tuple(children))
        raise StrategyConversionError(
            "no alternative/split of the focus realizes the strategy")

    return build(tuple(seq), ())
