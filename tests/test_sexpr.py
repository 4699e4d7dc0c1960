import dataclasses
import inspect
import pathlib
import random
import re
import sys

import pytest
from hypothesis import given, settings

from conftest import convergent_pair, open_variant, worked_term
from termgen import corpus
from test_cli import FORMS
from test_designs import random_design

import groundkit.sexpr as sx
from groundkit import focusing as fo
from groundkit import terms as tm
from groundkit.behaviours import Behaviour, UniverseBounds, behaviour
from groundkit.designs import (
    Pitchfork, atomic_bomb, build_fax, daimon, format_address, negative,
    parse_address, skunk, validate_design,
)
from groundkit.formulas import (
    Absurd, Atom, Conj, Disj, Exists, Forall, IConst, IVar, Impl,
)
from groundkit.sharing import Syntax, fold

DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"

XI = (0,)


def form(value, sort: str):
    """The list form of the value's text, a `sort`."""
    return sx.read_sexpr(sx.syntax_text(value, sort))


def text_roundtrip(value, sort: str):
    """The value read back from its text, a `sort`."""
    return sx.syntax_from_text(sx.syntax_text(value, sort), sort)


class TestReader:
    def test_atoms_and_nesting(self):
        assert sx.read_sexpr("(a (b c) d)") == ["a", ["b", "c"], "d"]

    def test_comments_and_whitespace(self):
        assert sx.read_sexpr("; note\n( a ; trailing\n  b )") == ["a", "b"]

    def test_error_carries_position(self):
        with pytest.raises(sx.ParseError) as e:
            sx.read_sexpr("(a\n  (b")
        assert e.value.line is not None

    def test_unbalanced(self):
        for text in ["(a))", "", "(a) (b)"]:
            with pytest.raises(sx.ParseError):
                sx.read_sexpr(text)

    def test_writer_reader_roundtrip(self):
        x = ["seq", ["par", ["atom+", "A"], ["atom-", "B"]]]
        assert sx.read_sexpr(sx.write_sexpr(x)) == x


class TestFormulas:
    CASES = [
        Atom("P"),
        Atom("P", (IVar("x"), IConst("a"))),
        Absurd(),
        Conj(Atom("P"), Disj(Atom("Q"), Absurd())),
        Impl(Atom("P"), Impl(Atom("Q"), Atom("P"))),
        Forall("x", Atom("P", (IVar("x"),))),
        Exists("y", Conj(Atom("P", (IVar("y"),)), Atom("Q"))),
    ]

    def test_roundtrip(self):
        for f in self.CASES:
            assert sx.formula_from_sexpr(sx.formula_to_sexpr(f)) == f

    def test_bad_head(self):
        with pytest.raises(sx.ParseError):
            sx.formula_from_sexpr(["nonsense", "P"])


class TestTerms:
    def test_named_terms_roundtrip(self):
        for t in (worked_term(), open_variant()):
            assert sx.term_from_sexpr(form(t, "term")) == t

    def test_random_corpus_roundtrip(self):
        for t in corpus(47, 60):
            assert sx.term_from_sexpr(form(t, "term")) == t


class TestGrammar:
    """Every row of the grammar table has a round-trip case here or in
    TestFormulas and the random term corpus."""
    Px = Atom("P", (IVar("x"),))
    TERMS = [
        tm.ForallI("x", tm.Var("p", Px)),
        tm.ExistsI(IConst("a"), Exists("x", Px),
                   tm.Const("c", Atom("P", (IConst("a"),)))),
        tm.Exploder(Atom("Q"), tm.Const("bottom", Absurd())),
        tm.ForallE(IVar("y"), tm.Const("all", Forall("x", Px))),
        tm.ExistsE("x", tm.Var("h", Px), tm.Const("some", Exists("x", Px)),
                   tm.Var("h", Px)),
        tm.DS(tm.Const("d", Disj(Atom("A"), Atom("B"))),
              tm.Const("n", Impl(Atom("A"), Absurd()))),
        tm.UserOp("plus", (tm.MetaVar("m"), tm.Const("z", Atom("N")))),
        tm.UserOp("nil", ()),
    ]
    POLARIZED = [fo.Tensor(fo.Par(fo.PosAtom("A"), fo.NegAtom("B")),
                           fo.Plus(fo.With(fo.One(), fo.Zero()),
                                   fo.Par(fo.Top(), fo.Bottom())))]

    def test_roundtrip_through_text(self):
        for t in self.TERMS:
            text = sx.syntax_text(t, "term")
            assert sx.term_from_sexpr(sx.read_sexpr(text)) == t
        for f in self.POLARIZED:
            assert text_roundtrip(f, "polarized") == f

    def test_term_rows_are_the_terms_table(self):
        """Each ground-term class has one row in `terms.FIELDS`, with one
        kind per field and binder scopes naming later fields, and the
        grammar's term heads map onto exactly those classes."""
        assert set(tm.FIELDS) == set(tm.GroundTerm.__subclasses__())
        for cls, spec in tm.FIELDS.items():
            words = spec.split()
            assert len(words) == len(cls.__match_args__)
            for i, word in enumerate(words):
                scope = word.partition(">")[2]
                for name in filter(None, scope.split(",")):
                    assert cls.__match_args__.index(name) > i
        term_rows = [(cls, spec) for cls, spec in sx._GRAMMAR.values()
                     if issubclass(cls, tm.GroundTerm)]
        assert sorted(cls.__name__ for cls, _ in term_rows) \
            == sorted(cls.__name__ for cls in tm.FIELDS)
        for cls, spec in term_rows:
            assert spec.split() == [word.partition(">")[0]
                                    for word in tm.FIELDS[cls].split()]

    def test_polarized_rows_are_the_connective_table(self):
        """Each polarized connective has one row in
        `focusing.CONNECTIVES`, and the grammar reads an atom's name or a
        connective's parts, one per field."""
        rows = {cls: spec for cls, spec in sx._GRAMMAR.values()
                if issubclass(cls, fo.PolarizedFormula)}
        assert set(rows) == set(fo.CONNECTIVES)
        for cls, c in fo.CONNECTIVES.items():
            assert c.polarity != fo.CONNECTIVES[c.dual].polarity
            assert fo.CONNECTIVES[c.dual].dual is cls
            assert c.shape == fo.CONNECTIVES[c.dual].shape
            want = ["name"] if c.shape == "atom" \
                else ["polarized"] * len(cls.__match_args__)
            assert rows[cls].split() == want
            assert len(want) == len(cls.__match_args__)

    def test_every_row_is_an_interned_syntax_class(self):
        """Terms, formulas and polarized formulas share one base, so no
        syntax class is a dataclass, whose `==` and `hash` recurse."""
        for cls, _ in sx._GRAMMAR.values():
            assert issubclass(cls, Syntax)
            assert not dataclasses.is_dataclass(cls)

    def test_every_row_has_a_roundtrip_case(self):
        forms = ([sx.formula_to_sexpr(f) for f in TestFormulas.CASES]
                 + [form(t, "term") for t in self.TERMS + corpus(47, 60)]
                 + [form(f, "polarized") for f in self.POLARIZED])
        heads, todo = set(), forms
        while todo:
            x = todo.pop()
            if isinstance(x, list):
                heads.add(x[0])
                todo += x[1:]
        assert sorted(set(sx._GRAMMAR) - heads) == []

    def test_printer_rejects_another_kind(self):
        """The text printer checks each node's sort, also where the cache
        holds the node's text from a print at another sort."""
        warm = sx.TextCache()
        sx.syntax_text(Atom("A"), "formula", warm)
        for print_term in (lambda t: sx.syntax_text(t, "term"),
                           lambda t: sx.syntax_text(t, "term", warm)):
            with pytest.raises(sx.ParseError, match="expected a term"):
                print_term(daimon(XI))
            with pytest.raises(sx.ParseError, match="expected a term"):
                print_term(Atom("A"))
            with pytest.raises(sx.ParseError, match="expected a disjunction"):
                print_term(tm.DisjI(1, Atom("A"), tm.Const("a", Atom("A"))))


def reference_form(value, sort: str):
    """The form of the value, a `sort`, built node by node as a list: the
    reference the text printer is compared against."""
    top = [value]
    todo = [(top, 0, sort)]
    while todo:
        form, i, sort = todo.pop()
        head = sx._HEAD_OF.get(type(form[i]))
        assert head in sx._HEADS[sort]
        _, kinds, rest = sx._ROWS[head]
        fields = list(form[i]._key)
        if rest:
            fields[-1:] = fields[-1]
        form[i] = out = [head, *fields]
        for j, kind in enumerate(kinds + rest * (len(fields) - len(kinds)), 1):
            if kind in sx._LEAVES:
                out[j] = str(out[j])
            else:
                todo.append((out, j, kind))
    return top[0]


def identity_chain(n: int) -> tm.GroundTerm:
    """(λx.x) applied to (λx.x) applied to … a, n redexes deep."""
    t = tm.Const("a", Atom("A"))
    for i in range(n):
        x = tm.Var(f"x{i}", Atom("A"))
        t = tm.ImplE(tm.ImplI(x, x), t)
    return t


def eliminated(t: tm.GroundTerm) -> tm.GroundTerm:
    """t under an elimination of its type, if it has one: t's own redexes
    are then rewritten below the root."""
    match tm.typecheck(t).succedent:
        case Conj():
            return tm.ConjE(1, t)
        case Impl(a, _):
            return tm.ImplE(t, tm.Const("b", a))
    return t


def reduction(t: tm.GroundTerm) -> list:
    """Each step of t's reduction, as (position rewritten, term after)."""
    steps = [((), t)]
    tm.normalize(t, tm.GroundEnv(), 10_000,
                 lambda pos, _, u: steps.append((pos, u)))
    return steps


class TestTextPrinter:
    """`syntax_text` prints what the list reference prints, cold and with a
    cache warmed by the value printed before, and the list forms are the
    reference's."""

    def assert_prints(self, values, sort="term"):
        cache = sx.TextCache()
        for v in values:
            want = sx.write_sexpr(reference_form(v, sort))
            assert sx.syntax_text(v, sort) == want
            assert sx.syntax_text(v, sort, cache) == want
            assert cache.held <= 2 * len(want)

    def test_term_corpus(self):
        self.assert_prints(corpus(47, 200))
        for t in corpus(47, 60):
            assert form(t, "term") == reference_form(t, "term")

    def test_every_step_of_seeded_reductions(self):
        below_root = 0
        for seed in range(5):
            for t in corpus(seed, 40, depth=4):
                steps = reduction(eliminated(eliminated(t)))
                self.assert_prints([u for _, u in steps])
                below_root += sum(pos != () for pos, _ in steps[1:])
        assert below_root > 100

    def test_identity_chains(self):
        for n in (1, 25, 300):
            self.assert_prints([u for _, u in reduction(identity_chain(n))])

    def test_formulas_and_polarized(self):
        self.assert_prints(TestFormulas.CASES, "formula")
        self.assert_prints(TestGrammar.POLARIZED, "polarized")
        for f in TestFormulas.CASES:
            assert sx.formula_to_sexpr(f) == reference_form(f, "formula")
        for f in TestGrammar.POLARIZED:
            assert form(f, "polarized") == reference_form(f, "polarized")


class TestAddresses:
    def test_named_forms(self):
        assert format_address(()) == "ε"
        assert parse_address("ε") == ()
        assert parse_address(format_address((0, 1, 2))) == (0, 1, 2)

    def test_parts_are_ascii_naturals(self):
        assert parse_address("e") == parse_address("") == ()
        assert parse_address("10.0.7") == (10, 0, 7)
        for text in ("0.-1", "+1", "1_0", "١", "0.", "0..1", "1.x"):
            with pytest.raises(ValueError):
                parse_address(text)


def reference_read(x, sort: str):
    """The value the form x denotes, as a `sort`, built from the list form
    by `sharing.fold`, each occurrence of a form entered and constructed:
    the reference the one-pass reader is compared against.  Its checks are
    the reader's, made on each form before its fields are entered, and the
    fields are entered right to left."""
    def enter(item):
        x, sort = item
        head = sx._head(x, sort)
        if head not in sx._HEADS[sort]:
            raise sx.ParseError(f"({head} …) is not {sx._a(sort)}")
        cls, kinds, rest = sx._ROWS[head]
        fields, positions = sx._fields(x, len(kinds), bool(rest)), []
        for j, kind in enumerate(kinds + rest * (len(fields) - len(kinds))):
            if kind in sx._LEAVES:
                fields[j] = sx._atom(fields[j], kind)
            else:
                fields[j] = fields[j], kind
                positions.insert(0, j)
        n = len(kinds)
        return (lambda fs: cls(*fs[:n], tuple(fs[n:]))) if rest else \
            (lambda fs: cls(*fs)), fields, positions
    return fold((x, sort), enter)


def spaced(text: str) -> str:
    """The text with a comment and newlines after each '(' and between
    fields: the same s-expression."""
    return text.replace(" ", "\n  ; next field\n  ").replace(
        "(", "(\n ; the head:\n ")


POLARIZED = TestGrammar.POLARIZED + [
    fo.Par(fo.PosAtom("A"), fo.With(fo.PosAtom("B"), fo.NegAtom("C"))),
    fo.Plus(fo.Tensor(fo.NegAtom("A"), fo.NegAtom("B")), fo.One()),
    fo.Top(), fo.Zero(), fo.Bottom()]


class TestOnePassReader:
    """`syntax_from_text` gives the very node the list reference builds
    from `read_sexpr`'s form, and prints back to its text."""

    def assert_reads(self, values, sort="term"):
        for v in values:
            for text in (sx.syntax_text(v, sort),
                         spaced(sx.syntax_text(v, sort))):
                got = sx.syntax_from_text(text, sort)
                assert got is reference_read(sx.read_sexpr(text), sort)
                assert got is v
                assert sx.syntax_text(got, sort) == sx.syntax_text(v, sort)

    def test_term_corpus(self):
        self.assert_reads(corpus(47, 200))
        self.assert_reads(TestGrammar.TERMS + [worked_term(), open_variant()])

    def test_identity_chains(self):
        self.assert_reads([identity_chain(n) for n in (1, 25, 300)])

    def test_formulas_and_polarized(self):
        assert any(f.args for f in TestFormulas.CASES if isinstance(f, Atom))
        self.assert_reads(TestFormulas.CASES, "formula")
        self.assert_reads(POLARIZED, "polarized")

    def test_spaced_text_is_one_form(self):
        text = sx.syntax_text(TestFormulas.CASES[1], "formula")
        assert sx.read_sexpr(spaced(text)) == sx.read_sexpr(text)
        assert spaced(text).startswith(
            "(\n ; the head:\n atom\n  ; next field\n  P\n")

    def test_deep_implication_reads_without_recursion(self):
        n = 10_000
        text = "(impl (atom A) " * n + "(atom B)" + ")" * n
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            f = sx.syntax_from_text(text, "formula")
        finally:
            sys.setrecursionlimit(limit)
        assert f is reference_read(sx.read_sexpr(text), "formula")
        depth = 0
        while isinstance(f, Impl):
            f, depth = f.right, depth + 1
        assert (depth, f) == (n, Atom("B"))

    def test_a_repeated_form_is_built_once(self, monkeypatch):
        """Reading a 300-redex chain calls the interning constructor once
        per distinct form, and the list reference about twice as often."""
        chain = identity_chain(300)
        text = sx.syntax_text(chain, "term")
        distinct, todo = set(), [chain]
        while todo:
            node = todo.pop()
            if isinstance(node, Syntax) and node not in distinct:
                distinct.add(node)
                todo += [f for f in node._key if isinstance(f, Syntax)]
        assert len(distinct) == 3 * 300 + 2
        calls = []
        new = Syntax.__new__

        def counted(cls, *fields):
            calls.append(cls)
            return new(cls, *fields)
        monkeypatch.setattr(Syntax, "__new__", counted)
        assert sx.syntax_from_text(text, "term") is chain
        assert len(calls) <= len(distinct) + 2
        calls.clear()
        assert reference_read(sx.read_sexpr(text), "term") is chain
        assert len(calls) > 1.9 * len(distinct)


class TestReaderErrors:
    """One fault gives the message the list reference gives, through
    `load`, `term_from_sexpr` and `formula_from_sexpr`; a lexical fault
    comes first and keeps its line and column."""

    CASES = [
        ("(impl-i (atom A) (var x (atom A)))", ".gt",
         "(atom …) is not a binder"),
        ("(impl (var x (atom A)) (atom B))", ".frm",
         "(var …) is not a formula"),
        ("(nonsense (atom A))", ".frm", "(nonsense …) is not a formula"),
        ("(impl-i (var x (atom A)))", ".gt",
         "(impl-i …) takes 2 fields, got 1"),
        ("(and (atom A))", ".frm", "(and …) takes 2 fields, got 1"),
        ("(atom)", ".frm", "(atom …) takes at least 1 field, got 0"),
        ("(var x (atom A) y)", ".gt", "(var …) takes 2 fields, got 3"),
        ("(absurd x (y))", ".frm", "(absurd …) takes 0 fields, got 2"),
        ("(impl-e (impl-i (var x (atom A)) (var x (atom A) (b)))"
         " (const a (atom A)))", ".gt", "(var …) takes 2 fields, got 3"),
        ("(impl-i\n  ; the binder\n  (var x (atom A))\n"
         "  (var x (and (atom A))))", ".gt", "(and …) takes 2 fields, got 1"),
        ("(var (x) (atom A))", ".gt", "expected a name, got (x)"),
        ("(forall (x (y)) (atom P ?x))", ".frm",
         "expected a name, got (x (y))"),
        ("(atom P a (b))", ".frm", "expected an individual, got (b)"),
        ("(conj-e x (const a (atom A)))", ".gt", "expected a number, got x"),
        ("(disj-i (1) (or (atom A) (atom B)) (const a (atom A)))", ".gt",
         "expected a number, got (1)"),
        ("()", ".gt", "expected a term form, got ()"),
        ("()", ".frm", "expected a formula form, got ()"),
        ("x", ".gt", "expected a term form, got x"),
        ("((a) b)", ".frm", "expected a formula form, got ((a) b)"),
        ("(impl (atom A) nonsense)", ".frm",
         "expected a formula form, got nonsense"),
        ("(impl-i))", ".gt", "line 1, column 9: trailing input ')'"),
        ("(impl-i) (x)", ".gt", "line 1, column 10: trailing input '('"),
        ("(impl-i", ".gt", "line 1, column 8: unclosed '('"),
        ("(absurd)\n(x", ".frm", "line 2, column 1: trailing input '('"),
        ("", ".frm", "line 1, column 1: unexpected end of input"),
        ("; nothing\n", ".gt", "line 2, column 1: unexpected end of input"),
    ]

    @pytest.mark.parametrize("text, suffix, message", CASES)
    def test_message(self, tmp_path, text, suffix, message):
        sort = {".gt": "term", ".frm": "formula"}[suffix]
        from_sexpr = {".gt": sx.term_from_sexpr,
                      ".frm": sx.formula_from_sexpr}[suffix]
        path = tmp_path / f"bad{suffix}"
        path.write_text(text, encoding="utf-8")
        readers = [lambda: sx.load(str(path)),
                   lambda: sx.syntax_from_text(text, sort),
                   lambda: from_sexpr(sx.read_sexpr(text))]
        if "line" not in message:
            readers.append(
                lambda: reference_read(sx.read_sexpr(text), sort))
        for read in readers:
            with pytest.raises(sx.ParseError) as e:
                read()
            assert str(e.value) == message

    def test_every_fault_is_found_in_reading_order(self):
        """Of two grammar faults, the one met first in the text is reported;
        a form's field count is met at its ')'."""
        for text, message in [
                ("(impl (var x (atom A)) (nonsense))",
                 "(var …) is not a formula"),
                ("(and (atom A (b)) (nonsense))",
                 "expected an individual, got (b)"),
                ("(and (nonsense) (atom A) (atom B))",
                 "(nonsense …) is not a formula"),
                ("(and (atom A) (atom B) (nonsense))",
                 "(and …) takes 2 fields, got 3")]:
            with pytest.raises(sx.ParseError, match=re.escape(message)):
                sx.syntax_from_text(text, "formula")

    @settings(deadline=None)
    @given(form=FORMS)
    def test_faults_match_the_reference(self, form):
        text = sx.write_sexpr(form)
        for sort in ("term", "formula", "polarized"):
            results = []
            for read in (lambda: sx.syntax_from_text(text, sort),
                         lambda: reference_read(sx.read_sexpr(text), sort)):
                try:
                    results.append(read())
                except sx.ParseError:
                    results.append(sx.ParseError)
            assert results[0] is results[1]


class TestDesigns:
    def test_constructors_roundtrip(self):
        for d in (daimon(XI), atomic_bomb(XI), skunk(XI),
                  build_fax(XI, (1,), 2, 1),
                  negative(XI, {(): daimon((7,))}, extra=[(7,)])):
            assert sx.design_from_sexpr(sx.design_to_sexpr(d)) == d

    def test_random_designs_roundtrip(self):
        rng = random.Random(53)
        for k in range(120):
            base = Pitchfork(None, frozenset({XI})) if k % 2 == 0 \
                else Pitchfork(XI, frozenset({(4,)}))
            d = random_design(rng, base, 3)
            back = sx.design_from_sexpr(sx.design_to_sexpr(d))
            assert back == d
            assert validate_design(back) == []

    def test_repr_survives_a_roundtrip(self):
        """A design read back from its text, with the original freed,
        prints the same `repr`: bases print their addresses sorted, not in
        the order their sets were built."""
        rng = random.Random(7)
        for k in range(2000):
            base = Pitchfork(XI, frozenset()) if k % 2 \
                else Pitchfork(None, frozenset({XI}))
            d = random_design(rng, base, rng.randint(1, 3))
            text, want = sx.write_sexpr(sx.design_to_sexpr(d)), repr(d)
            del d
            assert repr(sx.design_from_sexpr(sx.read_sexpr(text))) == want

    def test_cutnet_roundtrip(self):
        net = convergent_pair()
        back = text_roundtrip(net, "net")
        assert back.designs == net.designs
        assert back.cuts == net.cuts


class TestBehavioursAndSequents:
    def test_behaviour_roundtrip(self):
        bounds = UniverseBounds(2, ((), (0,)), Pitchfork(None,
                                                         frozenset({XI})))
        b = behaviour([atomic_bomb(XI)], bounds)
        back = sx.behaviour_from_sexpr(form(b, "behaviour"))
        assert back.generators == b.generators
        assert back.bounds == b.bounds

    def test_polarized_roundtrip(self):
        A, B = fo.PosAtom("A"), fo.PosAtom("B")
        cases = [
            fo.Par(A, fo.With(B, fo.NegAtom("C"))),
            fo.Plus(fo.Tensor(fo.NegAtom("A"), fo.NegAtom("B")), fo.One()),
            fo.Top(), fo.Zero(), fo.Bottom(),
        ]
        for f in cases:
            assert text_roundtrip(f, "polarized") == f

    def test_sequent_roundtrip(self):
        A = fo.PosAtom("A")
        seq = (fo.Par(A, A), fo.Tensor(fo.NegAtom("A"), fo.NegAtom("A")))
        assert text_roundtrip(seq, "seq") == seq


class TestFiles:
    def test_demo_files_load(self):
        loadable = [p for p in sorted(DATA.iterdir())
                    if p.suffix in (".frm", ".gt", ".dsn", ".net",
                                    ".bhv", ".seq")]
        assert len(loadable) >= 10
        for p in loadable:
            sx.load(str(p))

    def test_dump_load_identity(self, tmp_path):
        path = tmp_path / "t.dsn"
        d = build_fax(XI, (1,), 2, 1)
        sx.dump(d, str(path))
        assert sx.load(str(path)) == d
        # and the text re-prints identically
        text = path.read_text()
        sx.dump(sx.load(str(path)), str(path))
        assert path.read_text() == text

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(sx.ParseError):
            sx.load(str(tmp_path / "x.bogus"))
