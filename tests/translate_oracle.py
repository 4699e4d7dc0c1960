"""Arrow behaviours built from behaviours, the reference for
`check_translation`'s arrows and atoms.

`translate` builds an arrow from the free incarnations of its two atoms,
moved from their home ⊢α, and classifies an atom's design at that home.
The functions here take the other road: they move the behaviour itself to
the address and build the arrow from the moved behaviours.  An arrow's
defining set is also found the long way here: by filtering the whole
α⊢β universe, where `translate.arrow` builds its ⊑-minimal designs branch
by branch.
"""

from groundkit.behaviours import (
    Behaviour, enumerate_universe, free_incarnation,
)
from groundkit.designs import Design, Pitchfork, PosNode, delocate
from groundkit.interaction import DEFAULT_FUEL, CutNet
from groundkit.translate import arrow, normalize_open


def behaviour_at(env, f, xi) -> Behaviour:
    """f's behaviour in env moved from its home ⊢α to ⊢ξ: the one built at
    ⊢ξ, as orthogonality is invariant under delocation and f is bounded like
    the env.  Moving a common prefix keeps the universe order."""
    b = env.behaviour(f)
    alpha = min(b.base.pos)
    return Behaviour(
        frozenset(delocate(g, alpha, xi) for g in b.generators),
        env.bounds.at(Pitchfork(None, frozenset({xi}))),
        tuple(delocate(e, alpha, xi) for e in b.cached_orthogonal))


def behaviour_arrow(bA, bB, bounds, fuel=DEFAULT_FUEL) -> Behaviour:
    """A → B on α⊢β for A on ⊢α and B on ⊢β: `translate.arrow` of their
    free incarnations."""
    return arrow(min(bA.base.pos), min(bB.base.pos),
                 free_incarnation(bA, fuel), free_incarnation(bB, fuel),
                 bounds, fuel)


def defining_by_enumeration(alpha, beta, dom, cod, bounds,
                            fuel=DEFAULT_FUEL) -> list[Design]:
    """The designs of U(α⊢β) in bounds, in universe order, that send every
    design of dom into cod: the filter `translate.arrow` once ran over the
    whole universe.  The normal form of the net {a, d} reads d only through
    its branch at a's first ramification, so it is found once per
    (a, branch), None standing for no branch or for an a that ends at once;
    the a's are tried in dom's order up to the first that d does not send,
    so fuel runs out on the first normal form that needs more."""
    bounds = bounds.at(Pitchfork(alpha, frozenset({beta})))
    cut, out, sent = frozenset({alpha}), Pitchfork(None, frozenset({beta})), {}

    def sends(a: Design, d: Design) -> bool:
        key = (a, d.node.branch_map().get(a.node.ramification)
               if isinstance(a.node, PosNode) else None)
        if key not in sent:
            sent[key] = normalize_open(CutNet((a, d), cut, a, out),
                                       fuel) in cod
        return sent[key]

    return [d for d in enumerate_universe(bounds)
            if all(sends(a, d) for a in dom)]
