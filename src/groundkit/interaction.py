"""Cut-nets and the interaction machine that normalizes them.

The machine, after Terui's *Computational Ludics*, holds the positive
design in control and a listener map from each cut address to the
negative design listening there.  `step` consumes one action pair (ξ, I):
it pops the listener at ξ, enters its branch I, binds the action's
children at the addresses ξ.i and hands control to the branch.  Otherwise
it says why it stops: daimon, Ω, no branch I, or nobody listening at ξ.
`run` repeats `step`; closed and open normalization, snapshots,
orthogonality, incarnation and the net REPL all run on it.  Fuel bounds
the action pairs one call consumes: a run that finds a match for pair
fuel + 1 stops there with `Exhausted`, its trace ending with that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .designs import (
    Address, DaimonLeaf, Design, FidLeaf, NegNode, Pitchfork, PosNode,
    Ramification, child, daimon, disjoint, format_address, prefix_pairs,
    subtrees,
)
from .sharing import fold

DEFAULT_FUEL = 100_000

#: trace record: (polarity "+", "-" or "†", address, ramification)
TraceRecord = tuple[str, Address, Ramification]


class CutNetError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class CutNet:
    designs: tuple[Design, ...]
    cuts: frozenset[Address]
    principal: Design
    base: Pitchfork                  # the uncut addresses

    @property
    def closed(self) -> bool:
        return not self.base.all_addresses()


def make_cutnet(designs) -> CutNet:
    """Validate the three cut-net conditions and compute cuts/principal, in
    one walk over the designs' bases."""
    designs = tuple(designs)
    if not designs:
        raise CutNetError(["a cut-net must be non-empty"])

    # each base address -> the polarity and design index of its occurrences
    occurrences: dict[Address, list[tuple[str, int]]] = {}
    principal = None                 # the positive design, if there is one
    for k, d in enumerate(designs):
        if d.base.neg is None:
            principal = d
        else:
            occurrences.setdefault(d.base.neg, []).append(("-", k))
        for a in d.base.pos:
            occurrences.setdefault(a, []).append(("+", k))

    problems = [f"condition (1): base addresses {format_address(a)} and "
                f"{format_address(b)} neither disjoint nor equal"
                for a, b in prefix_pairs(sorted(occurrences))]
    cuts = {}
    neg, pos = None, set()
    for a, occ in occurrences.items():
        if len(occ) > 2:
            problems.append(f"condition (2): address {format_address(a)} "
                            f"occurs in {len(occ)} bases")
        elif len(occ) == 1:
            if occ[0][0] == "+":
                pos.add(a)
            else:                    # the uncut negative address
                neg, principal = a, designs[occ[0][1]]
        elif occ[0][0] == occ[1][0]:
            problems.append(f"condition (2): address {format_address(a)} "
                            "occurs twice with the same polarity")
        else:
            cuts[a] = occ
    if problems:
        raise CutNetError(problems)

    # condition (3): the graph (vertices = designs, edges = cuts) is a tree,
    # so n - 1 cuts each join two components
    if len(cuts) != len(designs) - 1:
        raise CutNetError(["condition (3): the cut graph is not a tree "
                           f"({len(cuts)} cuts over {len(designs)} designs)"])
    root = list(range(len(designs)))
    for (_, i), (_, j) in cuts.values():
        while root[i] != i:
            i = root[i]
        while root[j] != j:
            j = root[j]
        if i == j:
            raise CutNetError(["condition (3): the cut graph is not "
                               "connected"])
        root[i] = j
    return CutNet(designs, frozenset(cuts), principal,
                  Pitchfork(neg, frozenset(pos)))


# ---------------------------------------------------------------------------
# the interaction machine

#: why the machine stopped
CONVERGED = "converged"
OMEGA = "fid-encountered"
NO_BRANCH = "no-matching-negative-action"
UNCUT = "uncut-focus"
OUT_OF_FUEL = "fuel-exhausted"


def listeners(designs) -> dict[Address, Design]:
    """The listener map of a net: each negative design at its base address."""
    return {d.base.neg: d for d in designs if d.base.neg is not None}


def step(current: Design, env: dict[Address, Design]) -> Design | str:
    """Consume one action pair and return the design that takes control,
    or return why no pair can be consumed.  Updates `env` in place."""
    match current.node:
        case PosNode(focus, ram, kids):
            counter = env.pop(focus, None)
            if counter is None:
                return UNCUT
            for key, branch in counter.node.branches:
                if key == ram:
                    break
            else:
                return NO_BRANCH
            for i, c in zip(ram, kids):
                env[child(focus, i)] = c
            return branch
        case DaimonLeaf():
            return CONVERGED
        case FidLeaf():
            return OMEGA
    raise CutNetError(["a principal design cannot start negative"])


def run(current: Design, env: dict[Address, Design], fuel: int,
        trace: list[TraceRecord] | None = None,
        observe=None) -> tuple[str, Design, int]:
    """Step until the machine stops or has consumed `fuel` pairs.

    Returns why it stopped, the design in control then and the fuel left
    (negative when it ran out).  Consumed pairs are appended to `trace`,
    and `observe(current, env)` sees every state before its step.
    """
    while True:
        if observe is not None:
            observe(current, env)
        nxt = step(current, env)
        if isinstance(nxt, str):
            return nxt, current, fuel
        if trace is not None:
            node = current.node
            trace.append(("+", node.focus, node.ramification))
            trace.append(("-", node.focus, node.ramification))
        fuel -= 1
        if fuel < 0:
            return OUT_OF_FUEL, current, fuel
        current = nxt


# ---------------------------------------------------------------------------
# closed normalization


@dataclass(frozen=True)
class Converged:
    result: Design
    trace: tuple[TraceRecord, ...]
    reason = CONVERGED


@dataclass(frozen=True)
class Diverged:
    at: Address
    reason: str                     # no-matching-negative-action | fid-encountered
    trace: tuple[TraceRecord, ...]


@dataclass(frozen=True)
class Exhausted:
    trace: tuple[TraceRecord, ...]
    reason = OUT_OF_FUEL


InteractionResult = Converged | Diverged | Exhausted

#: the orthogonality verdict of a run, by the reason it stopped (not uncut)
VERDICT = {CONVERGED: "yes", OMEGA: "no", NO_BRANCH: "no",
           OUT_OF_FUEL: "unknown"}


def _site(d: Design) -> Address:
    return min(sorted(d.base.pos)) if d.base.pos else ()


def run_closed(designs, fuel: int = DEFAULT_FUEL,
               observe=None) -> InteractionResult:
    """Normalize the designs of a closed cut-net, from its one positive
    design; `observe` sees every state, as in `run`."""
    for principal in designs:
        if principal.base.neg is None:
            break
    else:
        raise CutNetError(["a closed cut-net has a positive design"])
    trace: list[TraceRecord] = []
    reason, last, _ = run(principal, listeners(designs), fuel, trace, observe)
    if reason == CONVERGED:
        trace.append(("†", _site(last), ()))
        return Converged(daimon(), tuple(trace))
    if reason == OUT_OF_FUEL:
        return Exhausted(tuple(trace))
    if reason == UNCUT:
        raise CutNetError([f"no design listens at "
                           f"{format_address(last.node.focus)}"])
    at = _site(last) if reason == OMEGA else last.node.focus
    return Diverged(at, reason, tuple(trace))


def normalize_closed(net: CutNet, fuel: int = DEFAULT_FUEL,
                     observe=None) -> InteractionResult:
    """Normalize a closed cut-net; `observe` sees every state."""
    if not net.closed:
        raise CutNetError(["normalization is defined on closed cut-nets only"])
    return run_closed(net.designs, fuel, observe)


# ---------------------------------------------------------------------------
# orthogonality


class BaseMismatch(ValueError):
    pass


def dual_bases(p: Pitchfork) -> tuple[Pitchfork, ...]:
    """The bases of a counter-test of a design on p: ⊢ξ and ξ⊢ are dual,
    and a design on α⊢β is tested by a pair on ⊢α and β⊢."""
    if p.neg is None and len(p.pos) == 1:
        return (Pitchfork(next(iter(p.pos)), frozenset()),)
    if p.neg is not None and not p.pos:
        return (Pitchfork(None, frozenset({p.neg})),)
    if p.neg is not None and len(p.pos) == 1:
        beta = next(iter(p.pos))
        if disjoint(p.neg, beta):
            return (Pitchfork(None, frozenset({p.neg})),
                    Pitchfork(beta, frozenset()))
    raise BaseMismatch(f"base {p} has no dual bases")


def _parts(x) -> tuple[Design, ...]:
    """The designs of one side of a test: one design, or a pair."""
    return (x,) if isinstance(x, Design) else tuple(x)


def orthogonal(d: Design, test, fuel: int = DEFAULT_FUEL) -> str:
    """'yes' | 'no' | 'unknown' for a design and a counter-test on its dual
    bases: one design, or for d on α⊢β a pair of designs on ⊢α and β⊢.

    Dual bases make the designs a closed cut-net, so no other check runs.
    """
    tests = _parts(test)
    if tuple(e.base for e in tests) != dual_bases(d.base):
        raise BaseMismatch(f"bases {d.base} and "
                           f"{', '.join(str(e.base) for e in tests)} "
                           "are not dual")
    return VERDICT[run_closed((d,) + tests, fuel).reason]


# ---------------------------------------------------------------------------
# used parts


def used_part(d: Design, trace) -> Design:
    """Prune a design to the nodes consumed (or reached) in a trace, as
    join_used_parts does.  Bases are kept, so the result compares under
    subdesign_order."""
    return join_used_parts(d, (trace,))


def join_used_parts(d: Design, traces) -> Design:
    """Union of the prunings of one design over several traces, in one walk
    carrying the bit mask of the traces that reach each node: a positive
    node no trace reaches becomes Fid, a branch no trace enters is dropped."""
    traces = list(traces)
    used: dict[tuple[Address, Ramification], int] = {}
    for k, trace in enumerate(traces):
        for pol, xi, ram in trace:
            if pol != "†":
                used[xi, ram] = used.get((xi, ram), 0) | 1 << k

    def enter(item):
        s, mask = item
        node = s.node
        if isinstance(node, PosNode):
            mask &= used.get((node.focus, node.ramification), 0)
            if not mask:
                return None, Design(s.base, FidLeaf()), ()
            return (lambda kids: s if tuple(kids) == node.children else Design(
                s.base, PosNode(node.focus, node.ramification, tuple(kids)))), \
                [(c, mask) for c in node.children], range(len(node.children))
        if isinstance(node, NegNode):
            kept = [(key, b, m) for key, b in node.branches
                    if (m := mask & used.get((node.focus, key), 0))]
            return (lambda bs: Design(s.base, NegNode(node.focus, tuple(
                (key, b) for (key, _, _), b in zip(kept, bs))))), \
                [(b, m) for _, b, m in kept], range(len(kept))
        return None, s, ()
    return fold((d, (1 << len(traces)) - 1), enter)


# ---------------------------------------------------------------------------
# rendering (pitchfork snapshots)


def render_design(d: Design, mark: frozenset[Address] = frozenset(),
                  indent: int = 0) -> list[str]:
    """Indented tree rendering, one line per node; marked addresses are
    starred."""
    def fa(a: Address) -> str:
        s = format_address(a)
        return f"*{s}*" if a in mark else s

    def braces(items) -> str:
        return "{" + ",".join(map(str, items)) + "}"

    lines = []
    for path, s in subtrees(d):
        match s.node:
            case PosNode(focus, ram, _):
                rule = f"(+ {fa(focus)} {braces(ram)})"
            case NegNode(focus, branches):
                keys = "; ".join(braces(k) for k, _ in branches)
                rule = f"(- {fa(focus)} {{{keys}}})"
            case node:
                rule = "†" if isinstance(node, DaimonLeaf) else "Ω"
        left = "" if s.base.neg is None else fa(s.base.neg)
        right = ", ".join(fa(a) for a in sorted(s.base.pos))
        lines.append(f"{'  ' * (indent + len(path))}{rule} {left} ⊢ {right}"
                     .rstrip())
    return lines


def render_state(current: Design, env: dict[Address, Design],
                 mark: frozenset[Address] = frozenset()) -> list[str]:
    """The design in control, then each listener by address, each followed
    by a blank line."""
    lines: list[str] = []
    for d in [current] + [env[k] for k in sorted(env)]:
        lines += render_design(d, mark) + [""]
    return lines


def render_snapshots(net: CutNet, fuel: int = DEFAULT_FUEL) -> str:
    """Replay a closed normalization, one snapshot of the net per step."""
    return snapshots(net, fuel)[1]


def snapshots(net: CutNet, fuel: int = DEFAULT_FUEL) -> tuple:
    """Normalize a closed cut-net: its result, and the text of a snapshot of
    the net per step."""
    out: list[str] = []
    steps = count()

    def snapshot(current: Design, env: dict[Address, Design]) -> None:
        node = current.node
        mark = frozenset({node.focus}) if isinstance(node, PosNode) \
            else frozenset()
        out.append(f"== step {next(steps)} ==")
        out.extend(render_state(current, env, mark))

    result = normalize_closed(net, fuel, snapshot)
    out += ["== result ==", "† ⊢" if isinstance(result, Converged)
            else "fuel exhausted" if isinstance(result, Exhausted)
            else "diverges (Ω)" if result.reason == OMEGA
            else f"diverges at {format_address(result.at)}"]
    return result, "\n".join(out) + "\n"
