"""Ludics kernel: addresses, pitchforks, designs, named designs.

A design is a tree of pitchforks.  Nodes are stored with explicit bases
so pruning (used by incarnation) keeps contexts stable; contexts are
checked by inclusion, so weakening is always allowed.

Designs are hash-consed as terms are (Filliâtre and Conchon, *Type-Safe
Modular Hash-Consing*, 2006): equal designs are one object, held weakly
by an intern table, so `==` is identity, and the structural hash and the
daimon flag are computed once.  No walker recurses: `subtrees` is an
explicit-stack preorder, and `sharing.fold` builds designs bottom-up, so
any depth works.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter
from weakref import ref as weak_ref

from .sharing import Interned, fold, gone

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


def natural(s: str) -> int:
    """The number the ASCII digits s spell; any other text is a ValueError."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a natural number: {s!r}")
    return int(s)


def parse_address(s: str) -> Address:
    s = s.strip()
    if s in ("ε", "e", ""):
        return ()
    return tuple(natural(p) for p in s.split("."))


def subsets(pool) -> list[Ramification]:
    """All subsets of a finite set of naturals, as sorted tuples."""
    items = sorted(set(pool))
    return [tuple(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


# ---------------------------------------------------------------------------
# pitchforks


@dataclass(frozen=True, slots=True)
class Pitchfork:
    """A sequent of addresses with at most one address on the left."""

    neg: Address | None
    pos: frozenset[Address]

    def __post_init__(self):
        object.__setattr__(self, "pos", frozenset(self.pos))

    def all_addresses(self) -> frozenset[Address]:
        return self.pos | ({self.neg} if self.neg is not None else frozenset())

    def __str__(self):
        left = format_address(self.neg) if self.neg is not None else ""
        right = ", ".join(format_address(a) for a in sorted(self.pos))
        return f"{left} ⊢ {right}".strip()

    def __repr__(self):
        # the dataclass text, its addresses sorted: a frozenset's own order
        # follows how it was built
        pos = f"{{{', '.join(map(repr, sorted(self.pos)))}}}" * bool(self.pos)
        return f"Pitchfork(neg={self.neg!r}, pos=frozenset({pos}))"


def prefix_pairs(addrs: list[Address]):
    """Each pair (a, b) of sorted distinct addresses where a is a proper
    prefix of b, in order.  a's extensions come right after a, so the
    sweep from a stops at the first address that does not extend it."""
    for i, a in enumerate(addrs):
        for j in range(i + 1, len(addrs)):
            if addrs[j][:len(a)] != a:
                break
            yield a, addrs[j]


def validate_pitchfork(p: Pitchfork) -> list[str]:
    problems = [f"address {format_address(p.neg)} is on both sides"] \
        if p.neg in p.pos else []
    return problems + [f"addresses {format_address(a)} and "
                       f"{format_address(b)} are not disjoint"
                       for a, b in prefix_pairs(sorted(p.all_addresses()))]


# ---------------------------------------------------------------------------
# designs


@dataclass(frozen=True, slots=True)
class DaimonLeaf:
    pass


@dataclass(frozen=True, slots=True)
class FidLeaf:
    pass


@dataclass(frozen=True, slots=True)
class PosNode:
    focus: Address
    ramification: Ramification
    children: tuple["Design", ...]       # aligned with ramification


@dataclass(frozen=True, slots=True)
class NegNode:
    focus: Address
    branches: tuple[tuple[Ramification, "Design"], ...]  # sorted by key

    def branch_map(self) -> dict[Ramification, "Design"]:
        return dict(self.branches)


DesignNode = DaimonLeaf | FidLeaf | PosNode | NegNode


class Design(Interned):
    """A base and the node of its last rule."""

    __slots__ = ("base", "node", "_hash", "_daimon")
    __match_args__ = ("base", "node")
    _daimon_of = attrgetter("_daimon")

    def __new__(cls, base: Pitchfork, node: DesignNode):
        # the key holds the premises' identities: their hashes collide (†
        # and Fid hash alike)
        kind = type(node)
        if kind is PosNode:
            kids = node.children
            fields = (node.focus, node.ramification, kids)
            key = (base.neg, base.pos, node.focus, node.ramification,
                   tuple(map(id, kids)))
        elif kind is NegNode:
            keys, kids = zip(*node.branches) if node.branches else ((), ())
            fields = (node.focus, node.branches)
            key = (kind, base.neg, base.pos, node.focus, keys, *map(id, kids))
        else:
            kids, fields, key = (), (), (kind, base.neg, base.pos)
        if (d := cls._interned.get(key, gone)()) is not None:
            return d
        d = object.__new__(cls)
        d._key, d.base, d.node = key, base, node
        # hash((base, node)): a dataclass hashes the tuple of its fields
        d._hash = hash(((base.neg, base.pos), fields))
        d._daimon = kind is DaimonLeaf or any(map(cls._daimon_of, kids))
        cls._interned[key] = weak_ref(d)
        return d

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Design(base={self.base!r}, node={self.node!r})"


# --- constructors ----------------------------------------------------------


def daimon(*pos: Address) -> Design:
    return Design(Pitchfork(None, pos), DaimonLeaf())


def fid(*pos: Address) -> Design:
    return Design(Pitchfork(None, pos), FidLeaf())


def positive(focus: Address, children: dict[int, Design] | None = None,
             extra=()) -> Design:
    """Positive rule: focus ξ, one premise ξ·i ⊢ Γᵢ per i in the ramification."""
    children = children or {}
    ram = tuple(sorted(children))
    kids = tuple(children[i] for i in ram)
    pos = frozenset({focus}) | frozenset(extra)
    for c in kids:
        pos |= c.base.pos
    return Design(Pitchfork(None, pos), PosNode(focus, ram, kids))


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
        return negative(a, {I: fid(b, *star(a, I)) if d <= 0 else positive(
            b, {i: fax(child(b, i), child(a, i), d - 1) for i in I})
            for I in pool})
    return fax(xi, xi2, depth)


# --- traversal helpers -----------------------------------------------------


def subtrees(d: Design):
    """Yield (path, design) pairs in preorder; paths are child selectors:
    ("i", i) for the child at ξ.i, ("I", I) for the branch I."""
    todo = [((), d)]
    while todo:
        path, s = todo.pop()
        yield path, s
        match s.node:
            case PosNode(_, ram, kids):
                premises = [(("i", i), c) for i, c in zip(ram, kids)]
            case NegNode(_, branches):
                premises = [(("I", key), b) for key, b in branches]
            case _:
                premises = []
        todo += [(path + (step,), p) for step, p in reversed(premises)]


def contains_daimon(d: Design) -> bool:
    return d._daimon


# --- validation ------------------------------------------------------------


def validate_design(d: Design) -> list[str]:
    """Check every node against the daimon/positive/negative schemas."""
    problems = []

    def report(path, msgs):
        if msgs:
            here = "root" + "".join(
                f"·{v}" if k == "i" else f"·{{{','.join(map(str, v))}}}"
                for k, v in path)
            problems.extend(f"{here}: {msg}" for msg in msgs)

    # path, the design there (None for none) and the lines its parent found
    # about it; a node's premises are checked only if the node is well formed
    todo = [((), d, [])]
    while todo:
        path, d, found = todo.pop()
        report(path, found)
        if d is None:
            continue
        found, later = validate_pitchfork(d.base), []
        match d.node:
            case DaimonLeaf() | FidLeaf():
                if d.base.neg is not None:
                    found.append("leaf rule on a negative pitchfork")
            case PosNode(focus, ram, kids):
                if d.base.neg is not None:
                    found.append("positive rule on a negative pitchfork")
                if focus not in d.base.pos:
                    found.append(f"focus {format_address(focus)} missing "
                                 "from the base")
                if ram != tuple(sorted(set(ram))) or len(ram) != len(kids):
                    found.append("malformed ramification")
                    kids = ()
                for i, c in zip(ram, kids):
                    lines = []
                    if c.base.neg != child(focus, i):
                        lines.append("premise not based on "
                                     f"{format_address(child(focus, i))}")
                    if not c.base.pos <= d.base.pos - {focus}:
                        lines.append("premise context escapes the conclusion")
                    later.append((path + (("i", i),), c, lines))
                later.append((path, None, [
                    f"premise contexts of children {ram[a]} and {ram[b]} "
                    "overlap" for a, b in combinations(range(len(kids)), 2)
                    if kids[a].base.pos & kids[b].base.pos]))
            case NegNode(focus, branches):
                if d.base.neg != focus:
                    found.append("negative rule must focus the base's left "
                                 "address")
                keys = [k for k, _ in branches]
                if keys != sorted(set(keys)):
                    found.append("duplicate or unsorted branch keys")
                for key, b in branches:
                    lines = []
                    if tuple(sorted(set(key))) != key:
                        lines.append("malformed ramification key")
                    if b.base.neg is not None:
                        lines.append("branch must be a positive pitchfork")
                        later.append((path + (("I", key),), None, lines))
                        continue
                    opened = star(focus, key)
                    if not opened <= b.base.pos:
                        lines.append("branch misses the opened sub-addresses")
                    if not (b.base.pos - opened) <= d.base.pos:
                        lines.append("branch context escapes the conclusion")
                    later.append((path + (("I", key),), b, lines))
            case _:
                found.append("unknown node")
        report(path, found)
        todo += reversed(later)
    return problems


# --- subdesign order and pruning -------------------------------------------


def subdesign_order(d1: Design, d2: Design) -> bool:
    """True iff d1 prunes d2: negative branches dropped, positive subtrees
    replaced by Fid, bases untouched."""
    todo = [(d1, d2)]
    while todo:
        d1, d2 = todo.pop()
        if d1.base != d2.base:
            return False
        match d1.node, d2.node:
            case (FidLeaf(), _):
                if d1.base.neg is not None:
                    return False
            case (DaimonLeaf(), DaimonLeaf()):
                pass
            case (PosNode(f1, r1, k1), PosNode(f2, r2, k2)) \
                    if f1 == f2 and r1 == r2:
                todo += zip(k1, k2)
            case (NegNode(f1, b1), NegNode(f2, b2)) if f1 == f2:
                m2 = dict(b2)
                if any(k not in m2 for k, _ in b1):
                    return False
                todo += [(v, m2[k]) for k, v in b1]
            case _:
                return False
    return True


def merge_subdesigns(d1: Design, d2: Design) -> Design:
    """Node-wise join of two prunings of one design."""
    def enter(pair):
        d1, d2 = pair
        if d1.base != d2.base:
            raise ValueError("join requires a common base")
        match d1.node, d2.node:
            case (FidLeaf(), _):
                return None, d2, ()
            case (_, FidLeaf()):
                return None, d1, ()
            case (DaimonLeaf(), DaimonLeaf()):
                return None, d1, ()
            case (PosNode(f1, r1, k1), PosNode(f2, r2, k2)) \
                    if f1 == f2 and r1 == r2:
                pairs = list(zip(k1, k2))
                return (lambda kids: Design(
                    d1.base, PosNode(f1, r1, tuple(kids)))), \
                    pairs, range(len(pairs))
            case (NegNode(f1, b1), NegNode(f2, b2)) if f1 == f2:
                m1, m2 = dict(b1), dict(b2)
                if len(m1) < len(b1) or len(m2) < len(b2):
                    raise ValueError("duplicate branch keys")
                keys = sorted(m1.keys() | m2.keys())
                both = [j for j, k in enumerate(keys) if k in m1 and k in m2]
                # a branch on both sides is joined, one on one side kept
                parts = [(m1[k], m2[k]) if k in m1 and k in m2
                         else m1.get(k, m2.get(k)) for k in keys]
                return (lambda bs: Design(
                    d1.base, NegNode(f1, tuple(zip(keys, bs))))), parts, both
        raise ValueError("designs are not prunings of a common design")
    return fold((d1, d2), enter)


def delocate(d: Design, old: Address, new: Address) -> Design:
    """Systematic address-prefix substitution (rebasing)."""
    def ra(a: Address) -> Address:
        return new + a[len(old):] if a[:len(old)] == old else a

    def enter(d: Design):
        base = Pitchfork(None if d.base.neg is None else ra(d.base.neg),
                         frozenset(ra(a) for a in d.base.pos))
        match d.node:
            case PosNode(f, ram, kids):
                return (lambda kids: Design(
                    base, PosNode(ra(f), ram, tuple(kids)))), \
                    list(kids), range(len(kids))
            case NegNode(f, branches):
                keys = [k for k, _ in branches]
                return (lambda bs: Design(
                    base, NegNode(ra(f), tuple(zip(keys, bs))))), \
                    [b for _, b in branches], range(len(branches))
        return None, Design(base, d.node), ()
    return fold(d, enter)
