"""Brute-force references for cut-nets and closed-net normalization.

`oracle_make_cutnet` checks each cut-net condition on its own walk over the
designs; `oracle_normalize` rebuilds the whole multiset of designs at every
step instead of keeping an environment of listeners.  Both are used only to
cross-check the engine.
"""

from groundkit.designs import (
    Address, DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode, child,
    disjoint, format_address,
)
from groundkit.interaction import CutNet, CutNetError


def oracle_make_cutnet(designs) -> CutNet:
    """Validate the three cut-net conditions and compute cuts/principal:
    a pairwise test for condition (1), a search over the cut graph for
    condition (3), and a walk over the designs for each of the results."""
    designs = tuple(designs)
    problems = []
    if not designs:
        raise CutNetError(["a cut-net must be non-empty"])

    occurrences: dict[Address, list[str]] = {}
    for d in designs:
        if d.base.neg is not None:
            occurrences.setdefault(d.base.neg, []).append("-")
        for a in d.base.pos:
            occurrences.setdefault(a, []).append("+")

    addrs = sorted(occurrences)
    for i, a in enumerate(addrs):
        for b in addrs[i + 1:]:
            if a != b and not disjoint(a, b):
                problems.append(
                    f"condition (1): base addresses {format_address(a)} and "
                    f"{format_address(b)} neither disjoint nor equal")
    cuts = set()
    for a, occ in occurrences.items():
        if len(occ) > 2:
            problems.append(f"condition (2): address {format_address(a)} "
                            f"occurs in {len(occ)} bases")
        elif len(occ) == 2:
            if occ[0] == occ[1]:
                problems.append(f"condition (2): address {format_address(a)} "
                                "occurs twice with the same polarity")
            else:
                cuts.add(a)
    if problems:
        raise CutNetError(problems)

    # condition (3): the graph (vertices = designs, edges = cuts) is a tree
    if len(cuts) != len(designs) - 1:
        problems.append("condition (3): the cut graph is not a tree "
                        f"({len(cuts)} cuts over {len(designs)} designs)")
    else:
        index = {}
        for k, d in enumerate(designs):
            for a in d.base.all_addresses():
                index.setdefault(a, []).append(k)
        seen = {0}
        frontier = [0]
        while frontier:
            k = frontier.pop()
            for a in designs[k].base.all_addresses():
                if a in cuts:
                    for j in index[a]:
                        if j not in seen:
                            seen.add(j)
                            frontier.append(j)
        if len(seen) != len(designs):
            problems.append("condition (3): the cut graph is not connected")
    if problems:
        raise CutNetError(problems)

    principals = [d for d in designs
                  if d.base.neg is None or d.base.neg not in cuts]
    assert len(principals) == 1, "a valid cut-net has a unique principal design"
    principal = principals[0]

    neg = None
    pos = set()
    for d in designs:
        if d.base.neg is not None and d.base.neg not in cuts:
            neg = d.base.neg
        pos |= {a for a in d.base.pos if a not in cuts}
    return CutNet(designs, frozenset(cuts), principal,
                  Pitchfork(neg, frozenset(pos)))



def oracle_normalize(designs, fuel: int = 100_000):
    """Return ("converged" | "diverged" | "fuel", consumed (focus, ram) list)."""
    designs = list(designs)
    consumed = []
    for _ in range(fuel + 1):
        positives = [d for d in designs if d.base.neg is None]
        assert len(positives) == 1, "closed net must keep a unique positive"
        current = positives[0]
        rest = [d for d in designs if d is not current]
        match current.node:
            case DaimonLeaf():
                return "converged", consumed
            case FidLeaf():
                return "diverged", consumed
            case PosNode(focus, ram, kids):
                listeners = [d for d in rest if d.base.neg == focus]
                assert len(listeners) == 1
                counter = listeners[0]
                assert isinstance(counter.node, NegNode)
                branch = counter.node.branch_map().get(ram)
                if branch is None:
                    return "diverged", consumed
                consumed.append((focus, ram))
                new = [d for d in rest if d is not counter]
                new.append(branch)
                for i, c in zip(ram, kids):
                    assert c.base.neg == child(focus, i)
                    new.append(c)
                designs = new
            case _:
                raise AssertionError("negative principal in a closed net")
    return "fuel", consumed
