"""First-order background language and atomic bases (Post systems).

Formulas here only serve as types for ground terms: there is no model
theory and no proof search at this level, just well-formedness and
closed atomic derivations.
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# individual terms: variables and constants only (no function symbols)


@dataclass(frozen=True)
class IVar:
    name: str

    def __str__(self):
        return "?" + self.name


@dataclass(frozen=True)
class IConst:
    name: str

    def __str__(self):
        return self.name


ITerm = IVar | IConst


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[ITerm, ...] = ()


@dataclass(frozen=True)
class Absurd:
    pass


@dataclass(frozen=True)
class Conj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Disj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Impl:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Atom | Absurd | Conj | Disj | Impl | Forall | Exists


def neg(a: Formula) -> Formula:
    """Negation is notation: not-A is A -> absurd."""
    return Impl(a, Absurd())


def free_ivars(f: Formula) -> frozenset[str]:
    match f:
        case Atom(_, args):
            return frozenset(t.name for t in args if isinstance(t, IVar))
        case Absurd():
            return frozenset()
        case Conj(l, r) | Disj(l, r) | Impl(l, r):
            return free_ivars(l) | free_ivars(r)
        case Forall(v, b) | Exists(v, b):
            return free_ivars(b) - {v}
    raise TypeError(f"not a formula: {f!r}")


def is_closed(f: Formula) -> bool:
    return not free_ivars(f)


def subst_ivar(f: Formula, var: str, term: ITerm) -> Formula:
    """Substitute an individual term for a free individual variable."""
    match f:
        case Atom(p, args):
            return Atom(p, tuple(term if isinstance(a, IVar) and a.name == var else a
                                 for a in args))
        case Absurd():
            return f
        case Conj(l, r):
            return Conj(subst_ivar(l, var, term), subst_ivar(r, var, term))
        case Disj(l, r):
            return Disj(subst_ivar(l, var, term), subst_ivar(r, var, term))
        case Impl(l, r):
            return Impl(subst_ivar(l, var, term), subst_ivar(r, var, term))
        case Forall(v, b):
            return f if v == var else Forall(v, subst_ivar(b, var, term))
        case Exists(v, b):
            return f if v == var else Exists(v, subst_ivar(b, var, term))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# atomic rules and bases


@dataclass(frozen=True)
class AtomicRule:
    premises: tuple[Formula, ...]
    conclusion: Formula


@dataclass(frozen=True)
class AtomicBase:
    individual_constants: frozenset[str] = frozenset()
    relational_constants: frozenset[tuple[str, int]] = frozenset()
    rules: tuple[AtomicRule, ...] = ()


def validate_rule(rule: AtomicRule) -> list[str]:
    """Check the Post-system rule conditions; empty list means ok.

    Premises and the conclusion must be atoms, no premise may be the
    absurdity constant, and every variable free in the conclusion must
    occur free in some premise.  The absurdity constant is permitted as
    a conclusion (only premises are constrained).
    """
    problems = []
    for i, p in enumerate(rule.premises):
        if isinstance(p, Absurd):
            problems.append(f"premise {i} is the absurdity constant")
        elif not isinstance(p, Atom):
            problems.append(f"premise {i} is not atomic")
    if not isinstance(rule.conclusion, (Atom, Absurd)):
        problems.append("conclusion is not atomic")
    premise_vars = frozenset().union(
        *(free_ivars(p) for p in rule.premises if isinstance(p, (Atom, Absurd)))
    ) if rule.premises else frozenset()
    if isinstance(rule.conclusion, (Atom, Absurd)):
        unbound = free_ivars(rule.conclusion) - premise_vars
        for v in sorted(unbound):
            problems.append(f"conclusion variable {v} does not occur in any premise")
    return problems


def _mentions_undeclared(f: Formula, base: AtomicBase) -> list[str]:
    problems = []
    if isinstance(f, Atom):
        arity = len(f.args)
        if (f.predicate, arity) not in base.relational_constants:
            problems.append(f"undeclared relational constant {f.predicate}/{arity}")
        for a in f.args:
            if isinstance(a, IConst) and a.name not in base.individual_constants:
                problems.append(f"undeclared individual constant {a.name}")
    return problems


def validate_base(base: AtomicBase) -> list[str]:
    problems = []
    for j, rule in enumerate(base.rules):
        for msg in validate_rule(rule):
            problems.append(f"rule {j}: {msg}")
        for f in (*rule.premises, rule.conclusion):
            for msg in _mentions_undeclared(f, base):
                problems.append(f"rule {j}: {msg}")
    return problems


# ---------------------------------------------------------------------------
# atomic derivations


@dataclass(frozen=True)
class AtomicDerivation:
    """A tree of atoms; each node is annotated with the rule it instantiates."""

    conclusion: Formula
    rule: AtomicRule
    children: tuple["AtomicDerivation", ...] = ()


def match_atom(pattern: Formula, instance: Formula,
               binding: dict[str, ITerm]) -> bool:
    """First-order matching of an atomic pattern against a closed atom.

    Extends `binding` in place; matching is syntactic so ties are
    impossible.
    """
    if isinstance(pattern, Absurd) and isinstance(instance, Absurd):
        return True
    if not (isinstance(pattern, Atom) and isinstance(instance, Atom)):
        return False
    if pattern.predicate != instance.predicate or len(pattern.args) != len(instance.args):
        return False
    for pa, ia in zip(pattern.args, instance.args):
        if isinstance(pa, IConst):
            if pa != ia:
                return False
        else:
            if pa.name in binding:
                if binding[pa.name] != ia:
                    return False
            else:
                binding[pa.name] = ia
    return True


def check_atomic_derivation(d: AtomicDerivation, base: AtomicBase) -> list[str]:
    """Check a closed derivation against a base; empty list means ok."""
    problems = []

    def walk(node: AtomicDerivation, path: str):
        if free_ivars(node.conclusion):
            problems.append(f"{path}: open leaf (free variables in {node.conclusion})")
            return
        if node.rule not in base.rules:
            problems.append(f"{path}: unknown rule")
            return
        if len(node.children) != len(node.rule.premises):
            problems.append(f"{path}: instantiation mismatch (premise count)")
            return
        binding: dict[str, ITerm] = {}
        if not match_atom(node.rule.conclusion, node.conclusion, binding):
            problems.append(f"{path}: instantiation mismatch (conclusion)")
            return
        for i, (prem, child) in enumerate(zip(node.rule.premises, node.children)):
            # premise variables missing from the conclusion are fixed by
            # matching against the child's conclusion
            if not match_atom(prem, child.conclusion, binding):
                problems.append(f"{path}.{i}: instantiation mismatch (premise)")
                return
            walk(child, f"{path}.{i}")

    walk(d, "root")
    return problems
