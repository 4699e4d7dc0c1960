"""The one-pass reader on the file formats, against the list walkers of
`sexpr_oracle`: the same value, or the same fault; and every one-token edit
of a demos/data file, through the command line, keeps its exit contract."""

import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sexpr_oracle import oracle_read, oracle_read_sexpr
from test_cli import CONTAINERS, DATA, FORMS, _sweep
from test_designs import random_design
from test_sexpr import POLARIZED, spaced

import groundkit.sexpr as sx
from groundkit.behaviours import UniverseBounds, behaviour
from groundkit.cli import main
from groundkit.designs import Pitchfork
from groundkit.interaction import CutNetError, make_cutnet
from groundkit.sharing import Refusal

XI = (0,)
POS, NEG = Pitchfork(None, frozenset({XI})), Pitchfork(XI, frozenset())
HOME = "(bounds 2 (pool (I) (I 0)) (pos-base 9))"


def printed(rng: random.Random, ext: str) -> str:
    """The text of a random value of the extension's format."""
    if ext == ".dsn":
        d = random_design(rng, rng.choice((POS, NEG)), rng.randint(1, 3))
        return sx.write_sexpr(sx.design_to_sexpr(d))
    if ext == ".net":
        net = make_cutnet((random_design(rng, POS, 2),
                           random_design(rng, NEG, 2)))
        return sx.syntax_text(net, "net")
    if ext == ".bhv":
        pool = rng.choice([((),), ((), (0,)), ((0,),)])
        bounds = UniverseBounds(rng.randint(1, 2), pool, POS)
        gens = [random_design(rng, POS, 2, pool)
                for _ in range(rng.randint(0, 2))]
        return sx.syntax_text(behaviour(gens, bounds), "behaviour")
    if ext == ".seq":
        seq = tuple(rng.sample(POLARIZED, rng.randint(0, 3)))
        return sx.syntax_text(seq, "seq")
    entries = [HOME] + [f"({key} {rng.randint(0, 3)})" for key in
                        ("fax-arity", "fuel") if rng.random() < 0.5]
    for f in rng.sample(["(absurd)", "(atom A)", "(atom B ?x c)"],
                        rng.randint(0, 2)):
        g = rng.choice(["(daimon 9)", "(pos 9 (I))", "(fid 9)"])
        entries.append(f"(atom {f} (behaviour {HOME} (generators {g})))")
    rng.shuffle(entries)
    return f"(tenv {' '.join(entries)})"


def one_token_edits(tokens: list):
    """(token, the tokens with it deleted), then (token, the tokens with it
    doubled), for each token in order."""
    for i, token in enumerate(tokens):
        yield token, tokens[:i] + tokens[i + 1:]
        yield token, tokens[:i + 1] + tokens[i:]


def outcome(read):
    """("value", the value read), or ("fault", its class, its message)."""
    try:
        return "value", read()
    except (sx.ParseError, CutNetError, ValueError) as e:
        return "fault", type(e), str(e)


def both(text: str, ext: str) -> tuple:
    sort = sx._FORMATS[ext]
    return (outcome(lambda: sx.syntax_from_text(text, sort)),
            outcome(lambda: oracle_read(text, ext)))


FILE_EXTS = [".dsn", ".net", ".bhv", ".seq", ".tenv"]


class TestAgainstTheWalkers:
    @settings(deadline=None)
    @given(form=FORMS)
    def test_every_container_of_random_forms(self, form):
        """Random forms hold several faults: each reader reports the first
        it meets, so only the kind of outcome is compared."""
        for ext, wraps in CONTAINERS.items():
            for wrap in wraps:
                new, old = both(sx.write_sexpr(wrap(form)), ext)
                assert new[:2] == old[:2]
                if new[0] == "value":
                    assert new == old

    @settings(deadline=None, max_examples=60)
    @given(rng=st.randoms(use_true_random=False),
           ext=st.sampled_from(FILE_EXTS))
    def test_printed_values(self, rng, ext):
        text = printed(rng, ext)
        for variant in (text, spaced(text)):
            new, old = both(variant, ext)
            assert new == old
            assert new[0] == "value"

    @settings(deadline=None, max_examples=40)
    @given(rng=st.randoms(use_true_random=False),
           ext=st.sampled_from(FILE_EXTS))
    def test_one_token_edits(self, rng, ext):
        """Deleting or doubling one token leaves one fault, and both
        readers name it alike.  Deleting an (extra …) clause's head leaves
        two: a premise with no head, and one premise too many; the walker
        counts the premises first, the one-pass reader meets the head."""
        tokens = sx._spaced(printed(rng, ext)).split()
        for token, edit in one_token_edits(tokens):
            text = " ".join(edit)
            variant = rng.choice((text, spaced(text)))
            new, old = both(variant, ext)
            if token == "extra" and len(edit) < len(tokens):
                assert new[1] is old[1] is sx.ParseError
            else:
                assert new == old, variant


class TestTokenizer:
    @settings(deadline=None)
    @given(words=st.lists(st.sampled_from(
        ["(", ")", "a", "0.1", " ", "\n", "\t", "; c(\n", ";)", "(b c)"]),
        max_size=12))
    def test_positions_match_the_regex_tokenizer(self, words):
        """A lexical fault names the line and column of its token, or of
        the end of the text, as the regex tokenizer that stripped no
        comment did."""
        text = "".join(words)
        assert outcome(lambda: sx.read_sexpr(text)) \
            == outcome(lambda: oracle_read_sexpr(text))
        for ext in FILE_EXTS:
            new, old = both(text, ext)
            if old[0] == "fault" and old[2].startswith("line "):
                assert new == old


class TestLexicalFaultFirst:
    """Each form is built at its ')', but no builder's fault is reported
    before a lexical fault later in the text."""

    def test_universe_over_the_cap_then_a_stray_paren(self, monkeypatch):
        monkeypatch.setattr(UniverseBounds.__init__, "__defaults__", (1000,))
        text = ("(behaviour (bounds 3 (pool (I) (I 0) (I 1) (I 0 1))"
                " (pos-base 0)) (generators (pos 0 (I))))")
        with pytest.raises(ValueError, match="universe exceeds cap 1000"):
            sx.syntax_from_text(text, "behaviour")
        with pytest.raises(sx.ParseError, match="trailing input '\\)'"):
            sx.syntax_from_text(text + ")", "behaviour")

    def test_net_breaking_condition_3_then_unclosed(self):
        text = "(net (daimon 0) (daimon 1)"
        with pytest.raises(CutNetError, match="condition \\(3\\)"):
            sx.syntax_from_text(text + ")", "net")
        for bad, fault in [(text, "unclosed '\\('"),
                           (text + "))", "trailing input '\\)'"),
                           ("(net (pos 0 (I 0)) (daimon 1)", "unclosed")]:
            with pytest.raises(sx.ParseError, match=fault):
                sx.syntax_from_text(bad, "net")

    def test_misbound_atom_then_trailing_input(self):
        text = (f"(tenv {HOME} (atom (atom A) (behaviour (bounds 1 (pool (I))"
                " (pos-base 9)) (generators (daimon 9)))))")
        with pytest.raises(sx.ParseError, match="depth or pool"):
            sx.syntax_from_text(text, "tenv")
        with pytest.raises(sx.ParseError, match="trailing input 'x'"):
            sx.syntax_from_text(text + " x", "tenv")


class TestReaders:
    def test_every_reader_is_the_text_reader(self, tmp_path):
        """Each `*_from_sexpr` reads the text of its list, and `load` reads
        every extension through `syntax_from_text`."""
        rng = random.Random(5)
        readers = {".dsn": sx.design_from_sexpr,
                   ".bhv": sx.behaviour_from_sexpr}
        for ext in FILE_EXTS:
            text = printed(rng, ext)
            path = tmp_path / f"x{ext}"
            path.write_text(text)
            want = oracle_read(text, ext)
            assert sx.load(str(path)) == want
            if ext in readers:
                assert readers[ext](sx.read_sexpr(text)) == want
        assert sx.bounds_from_sexpr(sx.read_sexpr(HOME)) \
            == UniverseBounds(2, ((), (0,)), Pitchfork(None, {(9,)}))


class TestEditedFilesThroughTheCli:
    def test_exit_contract(self, tmp_path, capsys):
        """Every one-token deletion or doubling of every demos/data file,
        through every verb of the sweep that reads it, exits 0, 1 or 2 with
        no traceback; what it prints on stderr is one `error:` line, and
        exit 2; and a refusal to read the edited file names its path."""
        problems, runs = [], 0
        for name in sorted(p.name for p in DATA.iterdir()):
            path = tmp_path / name
            cases = [[str(path) if a == name else str(DATA / a)
                      if (DATA / a).is_file() else a for a in argv]
                     for argv in _sweep() if name in argv]
            tokens = sx._spaced((DATA / name).read_text("utf-8")).split()
            for text in dict.fromkeys(" ".join(edit) for _, edit in
                                      one_token_edits(tokens)):
                path.write_text(text, encoding="utf-8")
                try:
                    sx.load(str(path))
                    fault = None
                except Refusal as e:
                    fault = f"error: {path}: {e}\n"
                for argv in cases:
                    runs += 1
                    status = main(argv)
                    err = capsys.readouterr().err
                    if status not in (0, 1, 2) or fault not in (None, err) \
                            or err and not (status == 2 and re.fullmatch(
                                "error: .*\n", err)):
                        problems.append((argv[0], text, status, err))
        assert problems == []
        assert runs == 10758
