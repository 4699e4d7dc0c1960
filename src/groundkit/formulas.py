"""First-order background language and atomic bases (Post systems).

Formulas here only serve as types for ground terms: there is no model
theory and no proof search at this level, just well-formedness and
closed atomic derivations.  Formulas are hash-consed on `sharing.Syntax`,
the one base that interns ground terms, formulas and polarized formulas
alike: equal formulas are one object, which keeps its free individual
variables, and `subst_ivar` walks with its own stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sharing import Syntax, fold


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


class Formula(Syntax):
    """A formula; each subclass is a connective, its fields in `__slots__`.
    A formula keeps its free individual variables."""

    __slots__ = ("_free_ivars",)

    def _made(self) -> None:
        match self:
            case Atom(_, args):
                ivs = frozenset(a.name for a in args if isinstance(a, IVar))
            case Forall(v, b) | Exists(v, b):
                ivs = b._free_ivars - {v}
            case _:
                ivs = frozenset().union(*(f._free_ivars for f in self._key))
        self._free_ivars = ivs


class Atom(Formula):
    __slots__ = __match_args__ = ("predicate", "args")

    def __new__(cls, predicate: str, args: tuple[ITerm, ...] = ()):
        return super().__new__(cls, predicate, args)


class Absurd(Formula):
    __slots__ = __match_args__ = ()


class Conj(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Disj(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Impl(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Forall(Formula):
    __slots__ = __match_args__ = ("var", "body")


class Exists(Formula):
    __slots__ = __match_args__ = ("var", "body")


def neg(a: Formula) -> Formula:
    """Negation is notation: not-A is A -> absurd."""
    return Impl(a, Absurd())


def free_ivars(f: Formula) -> frozenset[str]:
    return f._free_ivars


def is_closed(f: Formula) -> bool:
    return not free_ivars(f)


def subst_ivar(f: Formula, var: str, term: ITerm) -> Formula:
    """Substitute an individual term for a free individual variable."""
    def enter(f: Formula):
        if var not in f._free_ivars:
            return None, f, ()
        if type(f) is Atom:
            return None, Atom(f.predicate, tuple(
                term if isinstance(a, IVar) and a.name == var else a
                for a in f.args)), ()
        return (lambda parts: type(f)(*parts)), list(f._key), [
            j for j, x in enumerate(f._key) if isinstance(x, Formula)]
    return fold(f, enter)


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
        *(free_ivars(p) for p in rule.premises if isinstance(p, (Atom, Absurd))))
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
