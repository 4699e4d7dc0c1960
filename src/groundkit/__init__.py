"""groundkit: proof-theoretic grounds, ludics designs, and focusing.

Typed ground-term calculus with equational reduction; designs, cut-net
interaction, orthogonality, behaviours, incarnation; a translation of
linear implicational terms to designs; focused proof search with
strategy extraction; s-expression text formats and a CLI.  Each name is
imported from its module (`groundkit.terms`, …), never from the package.
"""

__version__ = "0.1.0"
