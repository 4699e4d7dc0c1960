import hypothesis.strategies as st
from hypothesis import given

from groundkit.formulas import (
    Absurd, Atom, AtomicBase, AtomicDerivation, AtomicRule, IConst, IVar,
    check_atomic_derivation, free_ivars, is_closed, match_atom,
    subst_ivar, validate_base, validate_rule, Impl,
)


def atom(name, *args):
    return Atom(name, tuple(args))


x, y, a = IVar("x"), IVar("y"), IConst("a")


class TestValidateRule:
    def test_ok(self):
        assert validate_rule(AtomicRule((atom("P", x),), atom("Q", x))) == []

    def test_unbound_conclusion_variable(self):
        problems = validate_rule(AtomicRule((atom("P", x),),
                                            atom("Q", x, y)))
        assert problems and "y" in problems[0]

    def test_absurd_premise_rejected(self):
        problems = validate_rule(AtomicRule((Absurd(),), atom("Q")))
        assert any("premise" in p for p in problems)

    def test_absurd_conclusion_allowed(self):
        # only premises are constrained away from absurdity
        assert validate_rule(AtomicRule((atom("P"),), Absurd())) == []

    def test_non_atomic_premise_rejected(self):
        bad = AtomicRule((Impl(atom("P"), atom("Q")),), atom("R"))
        assert validate_rule(bad)

    def test_premise_free_rule(self):
        assert validate_rule(AtomicRule((), atom("Q"))) == []


@st.composite
def small_rules(draw):
    names = ["P", "Q", "R"]
    ivars = [IVar("x"), IVar("y")]
    terms = st.sampled_from(ivars + [IConst("a")])

    def an_atom():
        return Atom(draw(st.sampled_from(names)),
                    tuple(draw(st.lists(terms, max_size=2))))
    premises = tuple(an_atom() for _ in range(draw(st.integers(0, 2))))
    return AtomicRule(premises, an_atom())


@given(small_rules())
def test_validate_rule_characterization(rule):
    """Accepted iff all formulas are atoms, no premise is absurd, and the
    conclusion's variables are covered by the premises."""
    covered = frozenset().union(
        *(free_ivars(p) for p in rule.premises)) if rule.premises \
        else frozenset()
    expected_ok = free_ivars(rule.conclusion) <= covered
    assert (validate_rule(rule) == []) == expected_ok


BASE = AtomicBase(
    individual_constants=frozenset({"a", "b"}),
    relational_constants=frozenset({("P", 1), ("Q", 1), ("R", 0)}),
    rules=(
        AtomicRule((), atom("P", IConst("a"))),
        AtomicRule((atom("P", x),), atom("Q", x)),
    ),
)


R_P, R_Q = BASE.rules[0], BASE.rules[1]


class TestDerivations:
    def test_premise_free_leaf(self):
        d = AtomicDerivation(atom("P", IConst("a")), R_P)
        assert check_atomic_derivation(d, BASE) == []

    def test_instantiated_rule(self):
        leaf = AtomicDerivation(atom("P", IConst("a")), R_P)
        d = AtomicDerivation(atom("Q", IConst("a")), R_Q, (leaf,))
        assert check_atomic_derivation(d, BASE) == []

    def test_unknown_rule(self):
        d = AtomicDerivation(atom("R"), AtomicRule((), atom("R")))
        assert check_atomic_derivation(d, BASE)

    def test_wrong_instantiation_rejected(self):
        # P's premise-free rule concludes P(a); P(b) is not an instance
        leaf = AtomicDerivation(atom("P", IConst("b")), R_P)
        d = AtomicDerivation(atom("Q", IConst("b")), R_Q, (leaf,))
        assert check_atomic_derivation(d, BASE)

    def test_subtree_closure(self):
        leaf = AtomicDerivation(atom("P", IConst("a")), R_P)
        d = AtomicDerivation(atom("Q", IConst("a")), R_Q, (leaf,))
        assert check_atomic_derivation(d, BASE) == []

        def subtrees(t):
            yield t
            for c in t.children:
                yield from subtrees(c)
        for sub in subtrees(d):
            assert check_atomic_derivation(sub, BASE) == []


class TestFormulas:
    def test_free_vars_and_closed(self):
        f = Impl(atom("P", x), atom("Q", IConst("a")))
        assert free_ivars(f) == frozenset({"x"})
        assert not is_closed(f)
        assert is_closed(subst_ivar(f, "x", IConst("a")))

    def test_match_atom(self):
        binding = {}
        assert match_atom(atom("P", x), atom("P", IConst("a")), binding)
        assert binding["x"] == IConst("a")
        assert not match_atom(atom("P", x), atom("Q", IConst("a")), {})

    def test_match_atom_consistency(self):
        binding = {}
        assert match_atom(atom("P", x, x), atom("P", a, a), binding)
        assert not match_atom(atom("P", x, x),
                              atom("P", a, IConst("b")), {})

    def test_validate_base_undeclared(self):
        bad = AtomicBase(frozenset(), frozenset(),
                         (AtomicRule((), atom("P", IConst("zzz"))),))
        assert validate_base(bad)

    def test_validate_base_ok(self):
        assert validate_base(BASE) == []
