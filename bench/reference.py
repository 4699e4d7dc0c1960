"""Independent reference models used to generate inputs and check outputs.

Nothing here imports groundkit.  Designs are plain tuples

    (neg, pos, node)    neg: address or None, pos: frozenset of addresses
    node: ("†",) | ("Ω",) | ("+", focus, ram, kids) | ("-", focus, branches)

with `branches` a tuple of (ramification, design) pairs sorted by key.  The
printer writes the same canonical `.dsn` text as groundkit's printer, so a
design can be handed to the program as text and the program's answers can be
compared as text.  Interaction is normalised by rebuilding the whole multiset
of designs at every step, with no listener environment, so that a fault in the
program's environment machine does not repeat here.
"""

from __future__ import annotations

import itertools

DAIMON = ("†",)
FID = ("Ω",)


# ---------------------------------------------------------------------------
# addresses and designs


def fmt_addr(a) -> str:
    return ".".join(map(str, a)) if a else "ε"


def star(xi, ram) -> frozenset:
    return frozenset(xi + (i,) for i in ram)


def full_pool(arity_bound: int) -> tuple:
    items = range(arity_bound + 1)
    return tuple(sorted(c for r in range(arity_bound + 2)
                        for c in itertools.combinations(items, r)))


def daimon(*pos):
    return (None, frozenset(pos), DAIMON)


def fid(*pos):
    return (None, frozenset(pos), FID)


def positive(focus, kids: dict, extra=()):
    ram = tuple(sorted(kids))
    pos = {focus, *extra}
    for i in ram:
        pos |= kids[i][1]
    return (None, frozenset(pos), ("+", focus, ram, tuple(kids[i] for i in ram)))


def negative(focus, branches: dict, extra=()):
    items = tuple(sorted(branches.items()))
    pos = set(extra)
    for key, b in items:
        pos |= b[1] - star(focus, key)
    return (focus, frozenset(pos), ("-", focus, items))


def contains_daimon(d) -> bool:
    node = d[2]
    if node == DAIMON:
        return True
    if node[0] == "+":
        return any(contains_daimon(k) for k in node[3])
    if node[0] == "-":
        return any(contains_daimon(b) for _, b in node[2])
    return False


def to_text(d) -> str:
    """The canonical `.dsn` s-expression of a design."""
    neg, pos, node = d
    if node == DAIMON or node == FID:
        head = "daimon" if node == DAIMON else "fid"
        return "(" + " ".join([head] + [fmt_addr(a) for a in sorted(pos)]) + ")"
    if node[0] == "+":
        _, focus, ram, kids = node
        inferred = {focus}
        for k in kids:
            inferred |= k[1]
        parts = ["pos", fmt_addr(focus), ram_text(ram)]
        parts += _extra(pos - inferred)
        parts += [to_text(k) for k in kids]
    else:
        _, focus, branches = node
        inferred = set()
        for key, b in branches:
            inferred |= b[1] - star(focus, key)
        parts = ["neg", fmt_addr(focus)] + _extra(pos - inferred)
        parts += [f"(branch {ram_text(key)} {to_text(b)})"
                  for key, b in branches]
    return "(" + " ".join(parts) + ")"


def ram_text(ram) -> str:
    return "(" + " ".join(["I"] + [str(i) for i in ram]) + ")"


def _extra(addrs) -> list:
    if not addrs:
        return []
    return ["(" + " ".join(["extra"] + [fmt_addr(a) for a in sorted(addrs)])
            + ")"]


# ---------------------------------------------------------------------------
# bounded universes


def universe(base_neg, base_pos: frozenset, depth: int, pool) -> list:
    """Every design on the base within the depth and ramification bounds.

    Negative branches keep the whole context; a positive rule sends each
    context address to one premise or drops it.
    """
    pool = tuple(sorted(pool))

    def positives(ctx: frozenset, d: int) -> list:
        out = [(None, ctx, DAIMON), (None, ctx, FID)]
        if d < 1:
            return out
        for focus in sorted(ctx):
            rest = sorted(ctx - {focus})
            for ram in pool:
                for slots in itertools.product(range(len(ram) + 1),
                                               repeat=len(rest)):
                    options = []
                    for k, i in enumerate(ram):
                        mine = frozenset(a for a, s in zip(rest, slots) if s == k)
                        options.append(negatives(focus + (i,), mine, d - 1))
                    for kids in itertools.product(*options):
                        out.append((None, ctx, ("+", focus, ram, kids)))
        return out

    def negatives(focus, ctx: frozenset, d: int) -> list:
        if d < 1:
            return []
        per_key = {key: positives(ctx | star(focus, key), d - 1) for key in pool}
        out = []
        for n in range(len(pool) + 1):
            for keys in itertools.combinations(pool, n):
                for bodies in itertools.product(*(per_key[k] for k in keys)):
                    out.append((focus, ctx, ("-", focus, tuple(zip(keys, bodies)))))
        return out

    if base_neg is None:
        return positives(frozenset(base_pos), depth)
    return negatives(base_neg, frozenset(base_pos), depth)


# ---------------------------------------------------------------------------
# interaction by rebuilding the net


def normalise(designs, fuel: int = 10_000):
    """("converged" | "diverged" | "fuel", consumed (focus, ram) pairs)."""
    net = list(designs)
    consumed = []
    for _ in range(fuel):
        positives = [d for d in net if d[0] is None]
        if len(positives) != 1:
            raise ValueError("a closed net has exactly one positive design")
        current = positives[0]
        rest = [d for d in net if d is not current]
        node = current[2]
        if node == DAIMON:
            return "converged", consumed
        if node == FID:
            return "diverged", consumed
        _, focus, ram, kids = node
        listeners = [d for d in rest if d[0] == focus]
        if not listeners:
            return "diverged", consumed
        counter = listeners[0]
        branch = dict(counter[2][2]).get(ram)
        if branch is None:
            return "diverged", consumed
        consumed.append((focus, ram))
        net = [d for d in rest if d is not counter] + [branch, *kids]
    return "fuel", consumed


def orthogonal_set(gens, candidates) -> list:
    """The candidates that converge against every generator."""
    return [c for c in candidates
            if all(normalise((g, c))[0] == "converged" for g in gens)]


def prune(d, used: set):
    """Keep the actions in `used`; unused positive actions become Ω."""
    neg, pos, node = d
    if node[0] == "+":
        _, focus, ram, kids = node
        if (focus, ram) not in used:
            return (neg, pos, FID)
        return (neg, pos, ("+", focus, ram, tuple(prune(k, used) for k in kids)))
    if node[0] == "-":
        _, focus, branches = node
        kept = tuple((k, prune(b, used)) for k, b in branches
                     if (focus, k) in used)
        return (neg, pos, ("-", focus, kept))
    return d


def classify(d, orth) -> str:
    """The verdict string groundkit prints for a candidate of a behaviour
    whose orthogonal is `orth`."""
    used = set()
    for e in orth:
        verdict, consumed = normalise((d, e))
        if verdict != "converged":
            return "NotInBehaviour"
        used.update(consumed)
    if contains_daimon(d):
        return "PseudoGround(contains-daimon)"
    if prune(d, used) != d:
        return "PseudoGround(not-material)"
    return "Ground"


# ---------------------------------------------------------------------------
# ground terms with a known reduction


def atom(name: str) -> str:
    return f"(atom {name})"


ABSURD = "(absurd)"


def impl(a: str, b: str) -> str:
    return f"(impl {a} {b})"


def var(name: str, ty: str) -> str:
    return f"(var {name} {ty})"


def copycat(x: str, ty: str) -> str:
    return f"(impl-i {var(x, ty)} {var(x, ty)})"


class Built:
    """A closed term, its type and the terms its reduction passes through.

    Built from the normal form outwards.  After `finish`, `stages[0]` is the
    term, `stages[k]` the term after k steps and `stages[-1]` its normal form;
    `steps[k]` names the rule of step k+1, always taken at the root.
    """

    def __init__(self, normal: str, ty: str):
        self.stages = [normal]
        self.steps: list[str] = []
        self.ty = ty

    def wrap(self, rule: str, outer) -> None:
        """Put a redex around the current term that contracts back to it;
        `outer` maps the current term's text to the redex's text."""
        self.stages.append(outer(self.stages[-1]))
        self.steps.append(rule)

    def finish(self) -> "Built":
        self.stages.reverse()
        self.steps.reverse()
        return self

    @property
    def term(self) -> str:
        return self.stages[0]

    @property
    def normal(self) -> str:
        return self.stages[-1]


def identity_chain(n: int, const: str, ty: str, prefix: str) -> Built:
    """(λx.x) applied n times in nested argument position to a constant."""
    b = Built(f"(const {const} {ty})", ty)
    for i in range(n):
        cc = copycat(f"{prefix}{i}", ty)
        b.wrap("impl-e", lambda t: f"(impl-e {cc} {t})")
    return b.finish()


class TermMaker:
    """Seeded well-typed closed terms of the introduction/elimination
    fragment (∧, ∨, →) whose reduction is known from their construction."""

    ATOMS = ("A", "B", "C")

    def __init__(self, rng):
        self.rng = rng
        self.fresh = 0

    def name(self) -> str:
        self.fresh += 1
        return f"v{self.fresh}"

    def type(self, depth: int) -> str:
        r = self.rng
        if depth == 0 or r.random() < 0.3:
            return atom(r.choice(self.ATOMS))
        a, b = self.type(depth - 1), self.type(depth - 1)
        return r.choice([f"(and {a} {b})", f"(or {a} {b})", impl(a, b)])

    def value(self, ty: str) -> str:
        """A closed term of the type whose head is an introduction."""
        head, args = _split_type(ty)
        r = self.rng
        if head == "atom":
            return f"(const k{r.randrange(4)} {ty})"
        if head == "and":
            return f"(conj-i {self.value(args[0])} {self.value(args[1])})"
        if head == "or":
            side = r.choice((1, 2))
            return f"(disj-i {side} {ty} {self.value(args[side - 1])})"
        x = self.name()
        return f"(impl-i {var(x, args[0])} {self.value(args[1])})"

    def redexes(self, m: int, type_depth: int = 1) -> Built:
        """A value wrapped in m redexes; each contracts at the root."""
        ty = self.type(type_depth)
        b = Built(self.value(ty), ty)
        r = self.rng
        for _ in range(m):
            kind = r.randrange(4)
            other = self.type(1)
            if kind == 0:
                cc = copycat(self.name(), ty)
                b.wrap("impl-e", lambda t: f"(impl-e {cc} {t})")
            elif kind == 1:
                side = r.choice((1, 2))
                junk = self.value(other)
                b.wrap("conj-e", lambda t: (
                    f"(conj-e 1 (conj-i {t} {junk}))" if side == 1
                    else f"(conj-e 2 (conj-i {junk} {t}))"))
            else:
                side = kind - 1
                x1, x2 = self.name(), self.name()
                t1, t2 = (ty, other) if side == 1 else (other, ty)
                taken = var(x1, t1) if side == 1 else var(x2, t2)
                junk = self.value(ty)
                arms = (taken, junk) if side == 1 else (junk, taken)
                b.wrap("disj-e", lambda t: (
                    f"(disj-e {var(x1, t1)} {var(x2, t2)} "
                    f"(disj-i {side} (or {t1} {t2}) {t}) {arms[0]} {arms[1]})"))
        return b.finish()


def _split_type(ty: str):
    """Head and argument texts of a type written by TermMaker."""
    inner = ty[1:-1]
    head, _, rest = inner.partition(" ")
    if head == "atom":
        return head, [rest]
    args, depth, start = [], 0, 0
    for i, c in enumerate(rest):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                args.append(rest[start:i + 1])
                start = i + 2
    return head, args
