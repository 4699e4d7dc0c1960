"""Arrow behaviours built from behaviours, the reference for
`check_translation`'s arrows and atoms.

`translate` builds an arrow from the free incarnations of its two atoms,
moved from their home ⊢α, and classifies an atom's design at that home.
The functions here take the other road: they move the behaviour itself to
the address and build the arrow from the moved behaviours.
"""

from groundkit.behaviours import Behaviour, free_incarnation
from groundkit.designs import Pitchfork, delocate
from groundkit.interaction import DEFAULT_FUEL
from groundkit.translate import arrow


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
