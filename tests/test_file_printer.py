"""The table printer on the file formats, against the list printers of
`sexpr_oracle`: the same bytes, and text that reads back to the value."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sexpr_oracle import PRINTERS
from test_designs import random_design
from test_sexpr import POLARIZED, reference_form

import groundkit.sexpr as sx
from groundkit import focusing as fo
from groundkit import terms as tm
from groundkit.behaviours import UniverseBounds, behaviour
from groundkit.designs import Pitchfork, daimon, positive
from groundkit.formulas import Atom, Exists, IVar, Impl
from groundkit.interaction import make_cutnet

XI = (0,)
POS, NEG = Pitchfork(None, frozenset({XI})), Pitchfork(XI, frozenset())
POOLS = [(), ((),), ((), (0,)), ((0,), (0, 1))]


def random_bounds(rng: random.Random) -> UniverseBounds:
    base = rng.choice([POS, NEG, Pitchfork(None, frozenset({(1,), (0, 2)})),
                       Pitchfork((3, 1), frozenset({(2,), (0,)})),
                       Pitchfork(None, frozenset())])
    return UniverseBounds(rng.randint(1, 3), rng.choice(POOLS), base)


def random_value(rng: random.Random, sort: str):
    """A random value of a printed file sort."""
    if sort == "design":
        return random_design(rng, rng.choice((POS, NEG)), rng.randint(0, 3))
    if sort == "net":
        return make_cutnet((random_design(rng, POS, 2),
                            random_design(rng, NEG, 2)))
    if sort == "bounds":
        return random_bounds(rng)
    if sort == "behaviour":
        pool = rng.choice(POOLS[1:])
        bounds = UniverseBounds(rng.randint(1, 2), pool, POS)
        return behaviour([random_design(rng, POS, 2, pool)
                          for _ in range(rng.randint(0, 2))], bounds)
    return tuple(rng.sample(POLARIZED, rng.randint(0, 3)))


class TestAgainstTheListPrinters:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sort=st.sampled_from(
        sorted(PRINTERS)))
    def test_the_same_bytes_and_back(self, seed, sort):
        """syntax_text(x, sort) is write_sexpr of the list reference, and
        reads back to x: random designs with (extra …) clauses, nets,
        bounds, behaviours, and sequents, the empty one included."""
        x = random_value(random.Random(seed), sort)
        text = sx.syntax_text(x, sort)
        assert text == sx.write_sexpr(PRINTERS[sort](x))
        assert sx.syntax_from_text(text, sort) == x

    def test_equal_tuples_print_by_their_sort(self):
        """The empty pool entry (I) and the empty (generators) are one
        tuple, (), met as two sorts; a cache keeps them apart too."""
        b = behaviour((), UniverseBounds(1, ((),), POS))
        want = "(behaviour (bounds 1 (pool (I)) (pos-base 0)) (generators))"
        cache = sx.TextCache()
        assert sx.syntax_text(b, "behaviour") == want
        assert sx.syntax_text(b, "behaviour", cache) == want
        assert sx.syntax_text(b, "behaviour", cache) == want
        assert sx.syntax_text(b.bounds.pool, "pool", cache) == "(pool (I))"
        assert sx.syntax_text((), "generators", cache) == "(generators)"

    def test_empty_lists(self):
        """An empty sequent, pool and generators, and a base with no
        address."""
        bounds = UniverseBounds(1, (), Pitchfork(None, frozenset()))
        for x, sort in [((), "seq"), (bounds, "bounds"), (behaviour(
                (), UniverseBounds(1, (), POS)), "behaviour")]:
            text = sx.syntax_text(x, sort)
            assert text == sx.write_sexpr(PRINTERS[sort](x))
            assert sx.syntax_from_text(text, sort) == x
        assert sx.syntax_text((), "seq") == "(seq)"
        assert sx.syntax_text(bounds, "bounds") == \
            "(bounds 1 (pool) (pos-base))"

    @pytest.mark.parametrize("value, sort, message", [
        ([fo.One()], "seq", "expected a sequent, got a list"),
        (tm.Const("a", Atom("A")), "design",
         "expected a design, got a Const"),
        (random_design(random.Random(1), POS, 2), "net",
         "expected a cut-net, got a Design"),
        (POS, "behaviour", "expected a behaviour, got a Pitchfork"),
        (positive(XI, {1: daimon((0, 1))}), "design",
         "expected a negative design, got a Design"),
        (fo.Tensor(fo.One(), fo.One()), "term",
         "expected a term, got a Tensor"),
        (Atom("A"), "design", "expected a design, got an Atom"),
        (Impl(Atom("A"), Atom("B")), "net", "expected a cut-net, got an Impl"),
        (Exists("x", Atom("A", (IVar("x"),))), "behaviour",
         "expected a behaviour, got an Exists")])
    def test_a_value_of_another_sort_is_refused(self, value, sort, message):
        with pytest.raises(sx.ParseError, match=f"^{message}$"):
            sx.syntax_text(value, sort)


def test_every_printer_is_the_table_printer(tmp_path, monkeypatch):
    """Each `*_to_sexpr` and `dump` print through one `syntax_text` call
    by the sort of their format, never through `write_sexpr`."""
    rng = random.Random(3)
    values = {sort: random_value(rng, sort) for sort in PRINTERS}
    values.update({"formula": Impl(Atom("A"), Atom("B")),
                   "term": tm.Const("a", Atom("A"))})
    wants = {sort: sx.write_sexpr(PRINTERS[sort](x))
             for sort, x in values.items() if sort in PRINTERS}
    wants.update({sort: sx.write_sexpr(reference_form(values[sort], sort))
                  for sort in ("formula", "term")})
    calls, table_printer = [], sx.syntax_text
    monkeypatch.setattr(sx, "syntax_text", lambda value, sort, cache=None:
                        calls.append(sort) or table_printer(value, sort,
                                                            cache))
    monkeypatch.setattr(sx, "write_sexpr", lambda x: pytest.fail(
        "printed through a list"))
    printers = {"design": sx.design_to_sexpr, "formula": sx.formula_to_sexpr}
    for sort, to_sexpr in printers.items():
        calls.clear()
        assert to_sexpr(values[sort]) == sx.read_sexpr(wants[sort])
        assert calls == [sort]
    for ext, sort in sx._FORMATS.items():
        if sort != "tenv":
            calls.clear()
            sx.dump(values[sort], str(tmp_path / f"x{ext}"))
            assert calls == [sort]
            assert (tmp_path / f"x{ext}").read_text() == wants[sort] + "\n"
