"""groundkit: proof-theoretic grounds, ludics designs, and focusing.

Typed ground-term calculus with equational reduction; designs, cut-net
interaction, orthogonality, behaviours, incarnation; a translation of
linear implicational terms to designs; focused proof search with
strategy extraction; s-expression text formats and a CLI.
"""

from .formulas import (
    Absurd, Atom, AtomicBase, AtomicDerivation, AtomicRule, Conj, Disj,
    Exists, Forall, Formula, IConst, ITerm, IVar, Impl,
    check_atomic_derivation, is_closed, match_atom, neg, subst_ivar,
    validate_base, validate_rule,
)
from .terms import (
    Canonical, Const, ConjE, ConjI, DS, DisjE, DisjI, Equation, ExistsE,
    ExistsI, Exploder, ForallE, ForallI, FuelExhausted, GroundEnv, GroundTerm,
    GroundType, GroundTypeError, GroundVerdict, ImplE, ImplI, Loop, MetaVar,
    ReductionOutcome, Stuck, UserOp, UserOpDecl, Var, denotes_ground,
    is_linear, normalize, reduce_step_at, subst, typecheck,
)
from .designs import (
    Address, DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode,
    Ramification, atomic_bomb, build_fax, contains_daimon, daimon, delocate,
    fid, format_address, merge_subdesigns, negative, parse_address, positive,
    skunk, subdesign_order, validate_design, validate_pitchfork,
)
from .interaction import (
    Converged, CutNet, CutNetError, DEFAULT_FUEL, Diverged,
    InteractionResult, TraceRecord, dual_bases, join_used_parts, make_cutnet,
    normalize_closed, orthogonal, render_design, snapshots,
)
from .behaviours import (
    Behaviour, CandidateVerdict, NotAMember, OutOfFuel, SizeLimitExceeded,
    UniverseBounds, behaviour, classify_candidate, count_universe,
    enumerate_universe, full_pool, incarnation_of, members, orthogonal_set,
)
from .translate import (
    TranslationEnv, TranslationError, arrow, check_translation,
    free_incarnation, normalize_open, translate,
)
from .focusing import (
    Bottom, ClusteredDerivation, NegAtom, One, Par, Plus, PolarizedFormula,
    PosAtom, Strategy, StrategyConversionError, Tensor, Top, With, Zero,
    derivation_to_strategy, dual, focused_search, polarity, pretty,
    strategy_to_derivation, validate_derivation, validate_game,
    validate_strategy,
)

__version__ = "0.1.0"
