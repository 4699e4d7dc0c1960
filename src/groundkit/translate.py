"""Mapping linear implicational ground terms to designs.

An arrow A → B is an ordinary `behaviours.Behaviour` on the two-address
base α ⊢ β.  Its counter-tests are pairs (one design cutting α, one
cutting β), so interaction runs on three-design closed nets; membership,
incarnation and classification are the behaviour layer's own.
Applications need the result of a cut-net whose base is ⊢β; a restricted
open normalizer handles exactly that shape by emitting the uncut actions
as output nodes.

Classification protocol for arrows over a domain with empty †-free
material part (such as the behaviour 0, whose only member contains †):
the defining condition of A → B quantifies over the †-free material
members of A, so it is vacuous and the defining set is the full bounded
universe on α ⊢ β.  That universe contains the sterile Fid, so its
orthogonal holds only pairs led by the Daimon on ⊢α, every candidate is
a member, and the incarnation of any candidate is its root pruning.
Consequently the copycat design is a member of 0 → 0 but classifies
PseudoGround(not-material) there, even though its cut against the Daimon
of 0 yields a Daimon based on the codomain address — a material member
of 0.  Both facts are exercised by the test suite; we implement the
literal definition rather than widen the quantifier to all material
members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .designs import (
    Address, Design, Pitchfork, PosNode, build_fax, child, daimon, delocate,
    fid, negative, positive, star,
)
from .behaviours import (
    Behaviour, CandidateVerdict, UniverseBounds, behaviour,
    classify_candidate, enumerate_universe, free_incarnation,
)
from .interaction import (
    CONVERGED, DEFAULT_FUEL, OUT_OF_FUEL, UNCUT, CutNet, listeners,
    make_cutnet, run,
)
from .formulas import Absurd, Atom, Formula, Impl
from .sharing import Refusal
from .terms import GroundEnv, GroundTerm, ImplE, ImplI, Const, \
    is_linear, typecheck


class TranslationError(Refusal):
    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


# ---------------------------------------------------------------------------
# restricted open normalization


def normalize_open(net: CutNet, fuel: int = DEFAULT_FUEL) -> Design | None:
    """Normalize a cut-net whose base is positive (⊢ Γ, no negative address).

    Returns the normal-form design on the net's base, or None when the
    main thread diverges.  An uncut focus becomes an output node whose
    branches are normalized in turn; divergent branches become Fid leaves,
    as in the normal form of an open interaction.  The whole call consumes
    at most `fuel` action pairs.
    """
    if net.base.neg is not None:
        raise TranslationError("unsupported-base",
                               "open normalization handles positive bases only")

    def nf_pos(current: Design, env: dict) -> Design | None:
        nonlocal fuel
        reason, last, fuel = run(current, env, fuel)
        if reason == OUT_OF_FUEL:
            raise TranslationError("fuel-exhausted",
                                   "open normalization ran out of fuel")
        if reason == CONVERGED:
            return daimon()      # rebased by the caller
        if reason != UNCUT:
            return None
        node = last.node
        return positive(node.focus, {i: nf_neg(c, env) for i, c
                                     in zip(node.ramification, node.children)})

    def nf_neg(d: Design, env: dict) -> Design:
        focus = d.node.focus
        branches = {}
        for key, b in d.node.branches:
            r = nf_pos(b, dict(env))
            # widen the branch base to cover the opened sub-addresses
            branches[key] = fid(*star(focus, key)) if r is None else Design(
                Pitchfork(None, r.base.pos | star(focus, key)), r.node)
        return negative(focus, branches)

    r = nf_pos(net.principal, listeners(net.designs))
    if r is None:
        return None
    return Design(Pitchfork(None, r.base.pos | net.base.pos), r.node)


# ---------------------------------------------------------------------------
# arrow behaviours


def _alpha(x: Behaviour | Design) -> Address:
    """The address α of x's base, which must be ⊢α."""
    if x.base.neg is None and len(x.base.pos) == 1:
        return next(iter(x.base.pos))
    raise TranslationError("unsupported-constructor",
                           f"expected a base ⊢α, got {x.base}")


def arrow(alpha, beta, dom_free, cod_free, bounds, fuel) -> Behaviour:
    """A → B on α⊢β: the designs sending dom_free, A's †-free incarnation at
    ⊢α, into cod_free, B's at ⊢β, closed under bi-orthogonality in bounds;
    its counter-tests are pairs of designs on ⊢α and β⊢."""
    bounds = bounds.at(Pitchfork(alpha, frozenset({beta})))
    # the normal form of the net {a, d}, valid by its bases, reads d only
    # through its branch at a's first ramification: one normalization per
    # (a, branch), None standing for no branch, or for an a that ends at
    # once; a diverging cut maps into no member
    cut, out, sent = frozenset({alpha}), Pitchfork(None, frozenset({beta})), {}

    def sends(a: Design, d: Design) -> bool:
        key = (a, d.node.branch_map().get(a.node.ramification)
               if isinstance(a.node, PosNode) else None)
        if key not in sent:
            sent[key] = normalize_open(CutNet((a, d), cut, a, out),
                                       fuel) in cod_free
        return sent[key]

    # in universe order: the orthogonal keeps the ⊑-minimal designs in this
    # order and stops at the first failing one, so its cost must not
    # follow hash order
    defining = [d for d in enumerate_universe(bounds)
                if all(sends(a, d) for a in dom_free)]
    return behaviour(defining, bounds, fuel)


# ---------------------------------------------------------------------------
# translation environment


class MisboundAtom(Refusal):
    """The atom, its one argument, whose behaviour's depth or pool is not
    its env's."""


@dataclass
class TranslationEnv:
    """Interpretation of atomic types: an atom's behaviour, or its
    (generators, bounds) as a .tenv gives them, built at the env's fuel the
    first time a type names the atom."""

    atoms: dict[Formula, Behaviour | tuple]
    bounds: UniverseBounds
    fax_arity: int = 1
    fuel: int = DEFAULT_FUEL
    _free: dict = field(default_factory=dict, repr=False, compare=False)
    _types: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for f, b in self.atoms.items():
            bounds = b.bounds if isinstance(b, Behaviour) else b[1]
            if bounds.at(self.bounds.base) != self.bounds:
                raise MisboundAtom(f)

    def behaviour(self, f: Formula) -> Behaviour:
        """f's behaviour at its home ⊢α, built on first use."""
        b = self.atoms.get(f)
        if b is None:
            raise TranslationError("unsupported-constructor",
                                   f"no behaviour registered for {f}")
        if not isinstance(b, Behaviour):
            b = self.atoms[f] = behaviour(*b, self.fuel)
        return b

    def free_at(self, f: Formula, xi: Address) -> frozenset[Design]:
        """The free incarnation of f's behaviour at ⊢ξ: computed once per env
        at its home ⊢α and moved there, as orthogonality is invariant under
        delocation and f is bounded like the env."""
        b = self.behaviour(f)
        alpha = _alpha(b)
        if f not in self._free:
            self._free[f] = free_incarnation(b, self.fuel)
        return frozenset(delocate(d, alpha, xi) for d in self._free[f])

    def type_of(self, t: GroundTerm) -> Formula:
        """The type of the closed term t, found once per env."""
        if t not in self._types:
            ty = typecheck(t, GroundEnv())
            if ty.antecedents:
                raise TranslationError("unsupported-constructor",
                                       "only closed terms are translated")
            self._types[t] = ty.succedent
        return self._types[t]


# ---------------------------------------------------------------------------
# translate


def translate(t: GroundTerm, env: TranslationEnv,
              root: Address = (0,)) -> Design:
    """Map a closed linear implicational term to a design.

    Supported shapes: →Iξ(ξ) (copycat), closed applications →E(t, u),
    and constants interpreted by the first †-free incarnated member of
    their atomic behaviour.  A chain f₁ (f₂ (… u)) is walked from the
    inside out at the one root: u's design, moved to ⊢root.0, is cut
    against each fᵢ's design on root.0 ⊢ root.1, one fax for every copycat.

    A copycat's fax, of depth 2d + 1 at env depth d, lies outside the
    arrow's α⊢β universe, so its NotInBehaviour is relative to the bounds.
    """
    ty = env.type_of(t)
    if not is_linear(t):
        raise TranslationError("nonlinear-term",
                               "every implication binder must bind exactly "
                               "one occurrence")
    _check_fragment(ty)
    alpha, beta = child(root, 0), child(root, 1)
    cuts = []           # fᵢ's design, or None for the fax, f₁ … fₙ in turn
    while isinstance(t, ImplE):
        # a function that is not a copycat is refused as it translates alone
        cuts.append(None if _copycat(t.function)
                    else translate(t.function, env, root))
        t = t.argument
    d = fax = build_fax(alpha, beta, env.bounds.max_depth, env.fax_arity) \
        if _copycat(t) or None in cuts else None
    if isinstance(t, Const):
        free = sorted(env.free_at(t.type, alpha), key=repr)
        if not free:
            raise TranslationError(
                "unsupported-constructor",
                f"the behaviour for {t.type} has no †-free material member")
        d = free[0]
    elif not _copycat(t):
        raise TranslationError(
            "unsupported-constructor",
            "only the copycat body ξ is supported under a binder"
            if isinstance(t, ImplI) else
            f"{type(t).__name__} is outside the implicational fragment")
    for df in reversed(cuts):
        d = normalize_open(make_cutnet((delocate(d, _alpha(d), alpha),
                                        fax if df is None else df)), env.fuel)
        if d is None:
            raise TranslationError("diverged-application",
                                   "the application cut-net diverges")
    return d


def _copycat(t: GroundTerm) -> bool:
    return isinstance(t, ImplI) and t.body == t.var


def _check_fragment(f: Formula) -> None:
    todo = [f]
    while todo:
        match todo.pop():
            case Impl(a, b):
                todo += (b, a)
            case g if not isinstance(g, Atom | Absurd):
                raise TranslationError("unsupported-constructor", f"type {g} "
                                       "is outside the implicational fragment")


def check_translation(t: GroundTerm, d: Design, env: TranslationEnv,
                      root: Address = (0,)) -> CandidateVerdict:
    """Classify the design of a term in the behaviour of the term's type."""
    match ty := env.type_of(t):
        case Impl(a, b):
            alpha, beta = child(root, 0), child(root, 1)
            ab = arrow(alpha, beta, env.free_at(a, alpha),
                       env.free_at(b, beta), env.bounds, env.fuel)
            return classify_candidate(d, ab, env.fuel)
        case _:
            # d moved to the atom's home ⊢α, as delocation keeps
            # orthogonality; on no base ⊢ξ it meets a base mismatch there
            b = env.behaviour(ty)
            alpha = _alpha(b)
            if d.base.neg is None and len(d.base.pos) == 1:
                d = delocate(d, min(d.base.pos), alpha)
            return classify_candidate(d, b, env.fuel)
