"""Ludics kernel: addresses, pitchforks, designs, named designs.

A design is a tree of pitchforks.  Nodes are stored with explicit bases
so pruning (used by incarnation) keeps contexts stable; contexts are
checked by inclusion, so weakening is always allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

Address = tuple[int, ...]
Ramification = tuple[int, ...]          # canonically sorted


def child(xi: Address, i: int) -> Address:
    return xi + (i,)


def star(xi: Address, ram) -> frozenset[Address]:
    """ξ⋆I: the set of immediate sub-addresses selected by a ramification."""
    return frozenset(child(xi, i) for i in ram)


def disjoint(a: Address, b: Address) -> bool:
    """Neither address is a prefix of the other."""
    n = min(len(a), len(b))
    return a[:n] != b[:n]


def format_address(a: Address) -> str:
    return ".".join(str(i) for i in a) if a else "ε"


def parse_address(s: str) -> Address:
    s = s.strip()
    if s in ("ε", "e", ""):
        return ()
    return tuple(int(p) for p in s.split("."))


def subsets(pool) -> list[Ramification]:
    """All subsets of a finite set of naturals, as sorted tuples."""
    items = sorted(set(pool))
    return [tuple(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


# ---------------------------------------------------------------------------
# pitchforks


@dataclass(frozen=True)
class Pitchfork:
    """A sequent of addresses with at most one address on the left."""

    neg: Address | None
    pos: frozenset[Address]

    def __post_init__(self):
        object.__setattr__(self, "pos", frozenset(self.pos))

    @property
    def polarity(self) -> str:
        return "neg" if self.neg is not None else "pos"

    def all_addresses(self) -> frozenset[Address]:
        return self.pos | ({self.neg} if self.neg is not None else frozenset())

    def __str__(self):
        left = format_address(self.neg) if self.neg is not None else ""
        right = ", ".join(format_address(a) for a in sorted(self.pos))
        return f"{left} ⊢ {right}".strip()


def validate_pitchfork(p: Pitchfork) -> list[str]:
    problems = []
    addrs = sorted(p.all_addresses())
    for i, a in enumerate(addrs):
        for b in addrs[i + 1:]:
            if not disjoint(a, b):
                problems.append(f"addresses {format_address(a)} and "
                                f"{format_address(b)} are not disjoint")
    return problems


def positive_base(*pos: Address) -> Pitchfork:
    return Pitchfork(None, frozenset(pos))


# ---------------------------------------------------------------------------
# designs


@dataclass(frozen=True)
class DaimonLeaf:
    pass


@dataclass(frozen=True)
class FidLeaf:
    pass


@dataclass(frozen=True)
class PosNode:
    focus: Address
    ramification: Ramification
    children: tuple["Design", ...]       # aligned with ramification


@dataclass(frozen=True)
class NegNode:
    focus: Address
    branches: tuple[tuple[Ramification, "Design"], ...]  # sorted by key

    def branch_map(self) -> dict[Ramification, "Design"]:
        return dict(self.branches)


DesignNode = DaimonLeaf | FidLeaf | PosNode | NegNode


@dataclass(frozen=True)
class Design:
    base: Pitchfork
    node: DesignNode


# --- constructors ----------------------------------------------------------


def daimon(*pos: Address) -> Design:
    return Design(positive_base(*pos), DaimonLeaf())


def fid(*pos: Address) -> Design:
    return Design(positive_base(*pos), FidLeaf())


def positive(focus: Address, children: dict[int, Design] | None = None,
             extra=()) -> Design:
    """Positive rule: focus ξ, one premise ξ·i ⊢ Γᵢ per i in the ramification."""
    children = children or {}
    ram = tuple(sorted(children))
    kids = tuple(children[i] for i in ram)
    pos = frozenset({focus}) | frozenset(extra)
    for c in kids:
        pos |= c.base.pos
    return Design(positive_base(*pos), PosNode(focus, ram, kids))


def negative(focus: Address, branches: dict | None = None, extra=()) -> Design:
    """Negative rule: focus ξ, one premise ⊢ Γ_I, ξ⋆I per ramification I in N."""
    branches = branches or {}
    items = tuple(sorted((tuple(sorted(k)), v) for k, v in branches.items()))
    pos = frozenset(extra)
    for key, b in items:
        pos |= b.base.pos - star(focus, key)
    return Design(Pitchfork(focus, pos), NegNode(focus, items))


# --- named designs ---------------------------------------------------------


def atomic_bomb(xi: Address) -> Design:
    """The premise-free positive rule with empty ramification at ⊢ξ."""
    return positive(xi)


def skunk(xi: Address) -> Design:
    """The negative rule with no branches at ξ⊢."""
    return negative(xi)


def negative_sponge(xi: Address, rams) -> Design:
    """Negative design whose every branch gives up immediately."""
    return negative(xi, {tuple(sorted(I)): daimon(*star(xi, I)) for I in rams})


def build_fax(xi: Address, xi2: Address, depth: int, arity_bound: int = 1) -> Design:
    """Depth-bounded copycat between two disjoint addresses.

    A negative node at `xi` branches over every ramification drawn from
    {0..arity_bound}; each branch replays the ramification positively at
    `xi2` and recurses with the addresses swapped.  Below `depth` the
    positive replies are truncated to Fid leaves.
    """
    if not disjoint(xi, xi2):
        raise ValueError("copycat endpoints must be disjoint")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    pool = subsets(range(arity_bound + 1))

    def fax(a: Address, b: Address, d: int) -> Design:
        branches = {}
        for I in pool:
            if d <= 0:
                branches[I] = fid(b, *star(a, I))
            else:
                branches[I] = positive(
                    b, {i: fax(child(b, i), child(a, i), d - 1) for i in I})
        return negative(a, branches)
    return fax(xi, xi2, depth)


# --- traversal helpers -----------------------------------------------------


def subtrees(d: Design):
    """Yield (path, design) pairs in preorder; paths are child selectors."""
    yield (), d
    match d.node:
        case PosNode(_, ram, kids):
            for i, c in zip(ram, kids):
                for p, s in subtrees(c):
                    yield (("i", i),) + p, s
        case NegNode(_, branches):
            for key, b in branches:
                for p, s in subtrees(b):
                    yield (("I", key),) + p, s


def design_depth(d: Design) -> int:
    """Nesting of rule applications; leaves count zero."""
    match d.node:
        case PosNode(_, _, kids):
            return 1 + max((design_depth(c) for c in kids), default=0)
        case NegNode(_, branches):
            return 1 + max((design_depth(b) for _, b in branches), default=0)
        case _:
            return 0


def contains_daimon(d: Design) -> bool:
    return any(isinstance(s.node, DaimonLeaf) for _, s in subtrees(d))


# --- validation ------------------------------------------------------------


def validate_design(d: Design) -> list[str]:
    """Check every node against the daimon/positive/negative schemas."""
    problems = []

    def fmt_path(path):
        return "root" + "".join(
            f"·{v}" if k == "i" else f"·{{{','.join(map(str, v))}}}"
            for k, v in path)

    def walk(d: Design, path):
        here = fmt_path(path)
        for msg in validate_pitchfork(d.base):
            problems.append(f"{here}: {msg}")
        match d.node:
            case DaimonLeaf() | FidLeaf():
                if d.base.neg is not None:
                    problems.append(f"{here}: leaf rule on a negative pitchfork")
            case PosNode(focus, ram, kids):
                if d.base.neg is not None:
                    problems.append(f"{here}: positive rule on a negative "
                                    "pitchfork")
                if focus not in d.base.pos:
                    problems.append(f"{here}: focus {format_address(focus)} "
                                    "missing from the base")
                if ram != tuple(sorted(set(ram))) or len(ram) != len(kids):
                    problems.append(f"{here}: malformed ramification")
                    return
                contexts = []
                for i, c in zip(ram, kids):
                    sub = path + ((("i", i)),)
                    if c.base.neg != child(focus, i):
                        problems.append(f"{fmt_path(sub)}: premise not based "
                                        f"on {format_address(child(focus, i))}")
                    if not c.base.pos <= d.base.pos - {focus}:
                        problems.append(f"{fmt_path(sub)}: premise context "
                                        "escapes the conclusion")
                    contexts.append(c.base.pos)
                    walk(c, sub)
                for a in range(len(contexts)):
                    for b in range(a + 1, len(contexts)):
                        if contexts[a] & contexts[b]:
                            problems.append(f"{here}: premise contexts of "
                                            f"children {ram[a]} and {ram[b]} "
                                            "overlap")
            case NegNode(focus, branches):
                if d.base.neg != focus:
                    problems.append(f"{here}: negative rule must focus the "
                                    "base's left address")
                keys = [k for k, _ in branches]
                if keys != sorted(set(keys)):
                    problems.append(f"{here}: duplicate or unsorted branch keys")
                for key, b in branches:
                    sub = path + ((("I", key)),)
                    if tuple(sorted(set(key))) != key:
                        problems.append(f"{fmt_path(sub)}: malformed "
                                        "ramification key")
                    if b.base.neg is not None:
                        problems.append(f"{fmt_path(sub)}: branch must be a "
                                        "positive pitchfork")
                        continue
                    opened = star(focus, key)
                    if not opened <= b.base.pos:
                        problems.append(f"{fmt_path(sub)}: branch misses the "
                                        "opened sub-addresses")
                    if not (b.base.pos - opened) <= d.base.pos:
                        problems.append(f"{fmt_path(sub)}: branch context "
                                        "escapes the conclusion")
                    walk(b, sub)
            case _:
                problems.append(f"{here}: unknown node")
    walk(d, ())
    return problems


# --- subdesign order and pruning -------------------------------------------


def subdesign_order(d1: Design, d2: Design) -> bool:
    """True iff d1 prunes d2: negative branches dropped, positive subtrees
    replaced by Fid, bases untouched."""
    if d1.base != d2.base:
        return False
    match d1.node, d2.node:
        case (FidLeaf(), _):
            return d1.base.neg is None
        case (DaimonLeaf(), DaimonLeaf()):
            return True
        case (PosNode(f1, r1, k1), PosNode(f2, r2, k2)):
            return (f1 == f2 and r1 == r2
                    and all(subdesign_order(a, b) for a, b in zip(k1, k2)))
        case (NegNode(f1, b1), NegNode(f2, b2)):
            if f1 != f2:
                return False
            m2 = dict(b2)
            return all(k in m2 and subdesign_order(v, m2[k]) for k, v in b1)
    return False


def merge_subdesigns(d1: Design, d2: Design) -> Design:
    """Node-wise join of two prunings of one design."""
    if d1.base != d2.base:
        raise ValueError("join requires a common base")
    match d1.node, d2.node:
        case (FidLeaf(), _):
            return d2
        case (_, FidLeaf()):
            return d1
        case (DaimonLeaf(), DaimonLeaf()):
            return d1
        case (PosNode(f1, r1, k1), PosNode(f2, r2, k2)) if f1 == f2 and r1 == r2:
            kids = tuple(merge_subdesigns(a, b) for a, b in zip(k1, k2))
            return Design(d1.base, PosNode(f1, r1, kids))
        case (NegNode(f1, b1), NegNode(f2, b2)) if f1 == f2:
            m = dict(b1)
            for k, v in b2:
                m[k] = merge_subdesigns(m[k], v) if k in m else v
            return Design(d1.base, NegNode(f1, tuple(sorted(m.items()))))
    raise ValueError("designs are not prunings of a common design")


def delocate(d: Design, old: Address, new: Address) -> Design:
    """Systematic address-prefix substitution (rebasing)."""
    def ra(a: Address) -> Address:
        return new + a[len(old):] if a[:len(old)] == old else a

    def rp(p: Pitchfork) -> Pitchfork:
        return Pitchfork(None if p.neg is None else ra(p.neg),
                         frozenset(ra(a) for a in p.pos))

    def go(d: Design) -> Design:
        match d.node:
            case PosNode(f, ram, kids):
                node = PosNode(ra(f), ram, tuple(go(c) for c in kids))
            case NegNode(f, branches):
                node = NegNode(ra(f), tuple((k, go(b)) for k, b in branches))
            case other:
                node = other
        return Design(rp(d.base), node)
    return go(d)
