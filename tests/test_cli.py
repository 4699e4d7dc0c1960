import contextlib
import importlib
import io
import itertools
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from test_behaviours import count_runs

import groundkit.sexpr as sx
from groundkit.behaviours import UniverseBounds
from groundkit.cli import main
from groundkit.designs import build_fax, daimon, fid, skunk

ROOT = pathlib.Path(__file__).parent.parent
DATA = ROOT / "demos" / "data"


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCheck:
    def test_wellformed_term(self, capsys):
        status, out, _ = run(capsys, "check", str(DATA / "identity-apply.gt"))
        assert status == 0
        assert out.startswith("ok: |- ")

    def test_open_variant_shows_antecedent(self, capsys):
        status, out, _ = run(capsys, "check",
                             str(DATA / "identity-apply-open.gt"))
        assert status == 0
        assert "|-" in out and not out.startswith("ok: |-" + " (")
        left = out.split("|-")[0]
        assert "impl" in left

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "check", "no-such.gt")
        assert status == 2
        assert "no such file" in err


class TestReduce:
    def test_worked_term_takes_two_steps(self, capsys):
        status, out, _ = run(capsys, "reduce", "--term",
                             str(DATA / "identity-apply.gt"))
        assert status == 0
        lines = out.splitlines()
        assert lines[0].startswith("step 1: impl-e")
        assert lines[1].startswith("step 2: disj-e")
        assert lines[2] == "canonical:"
        assert lines[3].startswith("(impl-i")

    def test_pretty_format_prints_each_stage(self, capsys):
        status, out, _ = run(capsys, "reduce", "--term",
                             str(DATA / "identity-apply.gt"),
                             "--format", "pretty")
        assert status == 0
        # one printed stage per step, plus the canonical result
        assert sum(1 for l in out.splitlines()
                   if l.startswith("(")) == 3

    def test_canonical_term_has_no_steps(self, capsys):
        status, out, _ = run(capsys, "reduce", "--term",
                             str(DATA / "copycat.gt"))
        assert status == 0
        assert out.splitlines()[0] == "canonical:"


class TestGround:
    def test_closed_canonical_term(self, capsys):
        status, out, _ = run(capsys, "ground", "--term",
                             str(DATA / "identity-apply.gt"))
        assert status == 0
        assert out.startswith("yes")

    def test_an_open_term_is_an_error_on_stderr(self, tmp_path, capsys):
        assert run(capsys, "ground", "--term",
                   write(tmp_path, "open.gt", "(var x (atom A))")) == (
            2, "", "error: groundhood is defined for closed terms only\n")


class TestDesignValidate:
    def test_valid(self, capsys):
        for name in ("daimon.dsn", "bomb.dsn", "skunk.dsn", "fax.dsn"):
            status, out, _ = run(capsys, "design-validate",
                                 "--design", str(DATA / name))
            assert (status, out.strip()) == (0, "ok"), name

    def test_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.dsn"
        # ramification {0} announced but no child supplied
        bad.write_text("(pos 0 (I 0))")
        status, _, err = run(capsys, "design-validate", "--design", str(bad))
        assert status == 2
        assert "ramification" in err

    @pytest.mark.parametrize("text, violation", [
        # a design on 0 ⊢ 0
        ("(neg 0 (extra 0))", "root: address 0 is on both sides"),
        # a branch key repeating an index is read, and reported here
        ("(neg 0 (branch (I 0 0) (daimon 0.0)))",
         "root·{0,0}: malformed ramification key"),
    ])
    def test_violation_exits_1(self, tmp_path, capsys, text, violation):
        bad = tmp_path / "bad.dsn"
        bad.write_text(text, encoding="utf-8")
        assert run(capsys, "design-validate", "--design", str(bad)) == \
            (1, f"violation: {violation}\n", "")


class TestInteract:
    def test_snapshots_match_golden(self, capsys):
        golden = (pathlib.Path(__file__).parent / "golden"
                  / "convergent_pair_snapshots.txt").read_text()
        status, out, _ = run(capsys, "interact", "--net",
                             str(DATA / "convergent-pair.net"),
                             "--render", "snapshots")
        assert status == 0
        assert out == golden
        assert out.count("== ") == 4

    def test_trace_lines(self, capsys):
        status, out, _ = run(capsys, "interact", "--net",
                             str(DATA / "convergent-pair.net"))
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "+ 0 {1}"
        assert lines[-1] == "converged"
        assert any(l.startswith("† 0.1.1") for l in lines)


class TestOrthBehaviourClassify:
    def test_orth(self, tmp_path, capsys):
        a = tmp_path / "a.dsn"
        b = tmp_path / "b.dsn"
        sx.dump(daimon((0,)), str(a))
        sx.dump(skunk((0,)), str(b))
        status, out, _ = run(capsys, "orth", str(a), str(b))
        assert (status, out.strip()) == (0, "yes")
        sx.dump(fid((0,)), str(a))
        status, out, _ = run(capsys, "orth", str(a), str(b))
        assert (status, out.strip()) == (1, "no")

    def test_behaviour_members(self, capsys):
        status, out, _ = run(capsys, "behaviour", "--behaviour",
                             str(DATA / "one.bhv"))
        assert status == 0
        assert out.splitlines()[0] == "members: 2 design(s)"

    def test_behaviour_orthogonal(self, capsys):
        status, out, _ = run(capsys, "behaviour", "--behaviour",
                             str(DATA / "one.bhv"), "--show", "orthogonal")
        assert status == 0
        assert out.splitlines()[0] == "orthogonal: 1 design(s)"

    def test_incarnate(self, capsys):
        status, out, _ = run(capsys, "incarnate",
                             "--design", str(DATA / "bomb.dsn"),
                             "--behaviour", str(DATA / "one.bhv"))
        assert status == 0
        assert "⊢" in out

    def test_classify_daimon_in_one(self, capsys):
        status, out, _ = run(capsys, "classify",
                             "--design", str(DATA / "daimon.dsn"),
                             "--behaviour", str(DATA / "one.bhv"))
        assert status == 1
        assert out.strip() == "PseudoGround(contains-daimon)"

    def test_classify_bomb_in_one(self, capsys):
        status, out, _ = run(capsys, "classify",
                             "--design", str(DATA / "bomb.dsn"),
                             "--behaviour", str(DATA / "one.bhv"))
        assert status == 0
        assert out.strip() == "Ground"


class TestTranslate:
    def test_copycat(self, tmp_path, capsys):
        out_path = tmp_path / "fax.dsn"
        status, out, _ = run(capsys, "translate",
                             "--term", str(DATA / "copycat.gt"),
                             "--env", str(DATA / "zero-env.tenv"),
                             "--out", str(out_path))
        assert status == 0
        assert "classification: PseudoGround(not-material)" in out
        assert sx.load(str(out_path)) == build_fax((0, 0), (0, 1), 2, 0)

    def test_copycat_machine_runs(self, monkeypatch, capsys):
        """Regression gate: the machine runs that translating and
        classifying the demo copycat take may only go down.  One run per
        (design, counter-test) took 214; shared prefixes take 37."""
        calls = count_runs(monkeypatch)
        status, _, _ = run(capsys, "translate",
                           "--term", str(DATA / "copycat.gt"),
                           "--env", str(DATA / "zero-env.tenv"))
        assert status == 0
        assert len(calls) <= 37

    def test_copycat_universe_builds(self, monkeypatch, capsys):
        """Regression gate: translating and classifying the demo copycat
        enumerates at most 5 universes: the atom's orthogonal (9⊢), its
        free incarnation (⊢9), the arrow's defining set (α⊢β) and the
        arrow's two counter-test sides (⊢α, β⊢)."""
        builds = []
        real = importlib.import_module("groundkit.behaviours") \
            .enumerate_universe
        for name in ("behaviours", "translate"):
            monkeypatch.setattr(importlib.import_module(f"groundkit.{name}"),
                                "enumerate_universe",
                                lambda bounds: builds.append(bounds)
                                or real(bounds))
        status, _, _ = run(capsys, "translate",
                           "--term", str(DATA / "copycat.gt"),
                           "--env", str(DATA / "zero-env.tenv"))
        assert status == 0
        assert len(builds) <= 5

    def test_a_chain_builds_one_fax(self, tmp_path, monkeypatch, capsys):
        """Translating the benchmark's apply-3, three copycats applied in
        turn to a constant, builds one fax for all three."""
        builds = []
        translate = importlib.import_module("groundkit.translate")
        real = translate.build_fax
        monkeypatch.setattr(translate, "build_fax",
                            lambda *args: builds.append(args) or real(*args))
        status, out, _ = run(capsys, "translate",
                             "--term", write(tmp_path, "apply-3.gt",
                                             identity_chain_text(3)),
                             "--env", write(tmp_path, "one.tenv", ONE_ENV))
        assert (status, out.splitlines()[-1]) == (0, "classification: Ground")
        assert len(builds) == 1

    def test_a_refusal_goes_to_stderr(self, capsys):
        assert run(capsys, "translate",
                   "--term", str(DATA / "identity-apply.gt"),
                   "--env", str(DATA / "zero-env.tenv")) == (
            2, "", "error: unsupported-constructor: only the copycat body ξ "
            "is supported under a binder\n")

    def test_nonlinear_rejected(self, tmp_path, capsys):
        bad = tmp_path / "t.gt"
        bad.write_text(
            "(impl-i (var x (absurd))"
            " (conj-i (var x (absurd)) (var x (absurd))))")
        status, _, err_or_out = run(capsys, "translate",
                                    "--term", str(bad),
                                    "--env", str(DATA / "zero-env.tenv"))
        assert status == 2


class TestFocus:
    def test_search_and_strategy(self, capsys):
        status, out, _ = run(capsys, "focus", "--sequent",
                             str(DATA / "par-with-plus.seq"),
                             "--to-strategy")
        assert status == 0
        assert out.splitlines()[0].startswith("neg-cluster on ")
        assert "strategy:" in out
        games = [l for l in out.splitlines() if l.startswith("  (")]
        assert len(games) == 4

    def test_unprovable(self, tmp_path, capsys):
        seq = tmp_path / "s.seq"
        seq.write_text("(seq (atom+ A))")
        status, out, _ = run(capsys, "focus", "--sequent", str(seq))
        assert status == 1
        assert out.strip() == "no derivation"


    @pytest.mark.parametrize("sequent, flags, status, first", [
        ("(seq (zero))", (), 1, "no derivation"),
        ("(seq (zero))", ("--daimon",), 0, "daimon: |- 0"),
        ("(seq (plus (zero) (one)))", (), 0, "pos-cluster on (0 ⊕ 1)"),
    ])
    def test_units(self, tmp_path, capsys, sequent, flags, status, first):
        """0 offers no alternative and 1 one empty alternative, so ⊢ 0 has
        no derivation and ⊢ 0 ⊕ 1 has one."""
        seq = tmp_path / "s.seq"
        seq.write_text(sequent)
        got, out, _ = run(capsys, "focus", "--sequent", str(seq), *flags)
        assert got == status
        assert out.splitlines()[0].startswith(first)

    @pytest.mark.parametrize("sequent, game", [
        ("(seq (one))", "  (1 | )"),
        ("(seq (plus (zero) (one)))", "  ((0 ⊕ 1) | )"),
    ])
    def test_premise_less_cluster_is_a_game(self, tmp_path, capsys,
                                            sequent, game):
        """A positive cluster with no premise is a move of its own game."""
        seq = tmp_path / "s.seq"
        seq.write_text(sequent)
        status, out, _ = run(capsys, "focus", "--sequent", str(seq),
                             "--to-strategy")
        assert status == 0
        assert out.splitlines()[-2:] == ["strategy:", game]


class TestRepl:
    def feed(self, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))

    def test_term_stepping(self, monkeypatch, capsys):
        self.feed(monkeypatch, "step\nstep\nstep\nquit\n")
        status, out, _ = run(capsys, "repl", "--term",
                             str(DATA / "identity-apply.gt"))
        assert status == 0
        assert "applied impl-e at root" in out
        assert "applied disj-e at" in out
        assert "canonical (no further step)" in out

    def test_back_at_step_zero(self, monkeypatch, capsys):
        self.feed(monkeypatch, "back\nquit\n")
        status, out, _ = run(capsys, "repl", "--term",
                             str(DATA / "identity-apply.gt"))
        assert status == 0
        assert "already at step 0" in out

    def test_back_then_step_repeats(self, monkeypatch, capsys):
        self.feed(monkeypatch, "step\nback\nstep\ntrace\nquit\n")
        status, out, _ = run(capsys, "repl", "--term",
                             str(DATA / "identity-apply.gt"))
        assert status == 0
        assert out.count("applied impl-e at root") == 2
        assert "0: (impl-e" in out

    def test_unknown_command(self, monkeypatch, capsys):
        self.feed(monkeypatch, "bogus\nquit\n")
        status, out, _ = run(capsys, "repl", "--term",
                             str(DATA / "identity-apply.gt"))
        assert "unknown command 'bogus'" in out

    def test_net_stepping_matches_batch(self, monkeypatch, capsys):
        self.feed(monkeypatch, "step\nstep\nstep\ntrace\nquit\n")
        status, out, _ = run(capsys, "repl", "--net",
                             str(DATA / "convergent-pair.net"))
        assert status == 0
        assert "consumed (+,-) at 0 {1}" in out
        assert "consumed (+,-) at 0.1 {1}" in out
        assert "converged: † ⊢" in out
        # the trace lines agree with `interact --render trace-lines`
        assert "+ 0 {1}" in out and "+ 0.1 {1}" in out


class TestLoopDetection:
    def test_term_repl_reports_cycle(self):
        from conftest import pingpong_env, pingpong_term
        from groundkit.cli import _repl_term
        buf = io.StringIO()
        status = _repl_term(pingpong_term(),
                            inp=io.StringIO("step\nstep\nstep\nquit\n"),
                            out=buf, env=pingpong_env())
        assert status == 0
        assert "loop detected: cycle of length 2" in buf.getvalue()


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "groundkit.cli", "check",
             str(DATA / "identity-apply.gt")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok: ")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("verb, lines", [("check", 0), ("reduce", 1)])
    def test_a_closed_stdout_exits_2(self, tmp_path, unbuffered, verb, lines):
        """A reader that closes the pipe ends the verb with exit 2 and one
        error line, with no traceback then or at exit: `check`'s one line
        meets a pipe closed before the program is up, and `reduce` still
        has several pipes' worth to write after the first line."""
        term = write(tmp_path, "chain.gt", identity_chain_text(100))
        args = {"check": [term],
                "reduce": ["--format", "pretty", "--term", term]}[verb]
        proc = subprocess.Popen(
            [sys.executable, "-m", "groundkit.cli", verb, *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
        assert all(proc.stdout.readline() for _ in range(lines))
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == f"error: {verb}: standard output closed\n".encode()


class TestDemos:
    """Each demo script, run with a fixed hash seed, prints the bytes
    committed under tests/golden/demos."""

    @pytest.mark.parametrize("script", sorted(
        p.name for p in (ROOT / "demos").glob("0[1-4]_*.sh")))
    def test_demo_prints_its_golden_bytes(self, script):
        proc = subprocess.run(
            ["sh", str(ROOT / "demos" / script)], capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED="0",
                     PYTHONPATH=str(ROOT / "src")))
        golden = ROOT / "tests" / "golden" / "demos" / f"{script[:-3]}.txt"
        assert proc.stdout == golden.read_bytes()


def test_printed_bytes_match_the_golden(tmp_path, capsys):
    """`dump` of every demos/data file but the read-only .tenv, then the
    `translate --out` of copycat.gt under zero-env.tenv, each after a line
    naming it, byte for byte.  identity-apply.gt is not translated under
    zero-env.tenv, so it writes no --out file."""
    printed = []
    for path in sorted(DATA.iterdir()):
        if path.suffix != ".tenv":
            out = tmp_path / f"x{path.suffix}"
            sx.dump(sx.load(str(path)), str(out))
            printed.append(f"== dump {path.name}\n" + out.read_text())
    for name in ("copycat.gt", "identity-apply.gt"):
        out = tmp_path / f"{name}.dsn"
        run(capsys, "translate", "--term", str(DATA / name),
            "--env", str(DATA / "zero-env.tenv"), "--out", str(out))
        if out.exists():
            printed.append(f"== translate {name}\n" + out.read_text())
    golden = ROOT / "tests" / "golden" / "printed.txt"
    assert "".join(printed) == golden.read_text(encoding="utf-8")


def _sweep():
    """Every verb on every demos/data file of the right suffix."""
    names = sorted(p.name for p in DATA.iterdir())
    of = lambda suffix: [n for n in names if n.endswith(suffix)]
    cases = [("check", n) for n in names]
    cases += [("design-validate", "--design", n) for n in of(".dsn")]
    cases += [("orth", a, b) for a in of(".dsn") for b in of(".dsn")]
    cases += [(verb, "--design", d, "--behaviour", b)
              for verb in ("incarnate", "classify")
              for d in of(".dsn") for b in of(".bhv")]
    cases += [(verb, "--term", t) for verb in ("reduce", "ground")
              for t in of(".gt")]
    cases += [("translate", "--term", t, "--env", e)
              for t in of(".gt") for e in of(".tenv")]
    cases += [("interact", "--net", n, "--render", r) for n in of(".net")
              for r in ("snapshots", "trace-lines")]
    cases += [("behaviour", "--behaviour", b, "--show", s)
              for b in of(".bhv") for s in ("members", "orthogonal")]
    cases += [("focus", "--sequent", q, *flag) for q in of(".seq")
              for flag in ((), ("--to-strategy",), ("--daimon",))]
    return cases


class TestExitContract:
    @pytest.mark.parametrize("argv", _sweep(), ids=" ".join)
    def test_status_is_0_1_or_2(self, capsys, argv):
        argv = [str(DATA / a) if (DATA / a).is_file() else a for a in argv]
        status, _, _ = run(capsys, *argv)
        assert status in (0, 1, 2)

    def test_sweep_size(self):
        assert len(_sweep()) == 66

    def test_base_mismatch_exits_2(self, capsys):
        status, _, err = run(capsys, "orth", str(DATA / "daimon.dsn"),
                             str(DATA / "daimon.dsn"))
        assert status == 2
        assert "not dual" in err

    def test_a_design_on_another_base_is_not_a_member(self, capsys):
        """incarnate answers a base mismatch as classify does: no, exit 1."""
        argv = ("--design", str(DATA / "skunk.dsn"),
                "--behaviour", str(DATA / "one.bhv"))
        assert run(capsys, "incarnate", *argv) == (
            1, "not a member: design on 0 ⊢, behaviour on ⊢ 0\n", "")
        assert run(capsys, "classify", *argv) == (
            1, "NotInBehaviour(base mismatch)\n", "")

    def test_focus_strategy_order_ignores_hash_seed(self):
        outputs = set()
        for seed in ("0", "16"):
            proc = subprocess.run(
                [sys.executable, "-m", "groundkit.cli", "focus", "--sequent",
                 str(DATA / "par-with-plus.seq"), "--to-strategy"],
                capture_output=True, check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed))
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    @pytest.mark.parametrize("text, suffix, message", [
        ("(impl-i)", ".gt", "(impl-i …) takes 2 fields, got 0"),
        ("(var (x) (atom A))", ".gt", "expected a name, got (x)"),
        ("(atom)", ".frm", "(atom …) takes at least 1 field, got 0"),
        ("(neg)", ".dsn", "(neg …) takes at least 1 field, got 0"),
        ("(behaviour)", ".bhv", "(behaviour …) takes 2 fields, got 0"),
        ("(seq (tensor (atom+ A)))", ".seq", "(tensor …) takes 2 fields, got 1"),
        ("(tenv (bounds))", ".tenv", "(bounds …) takes 3 fields, got 0"),
        ("(tenv ())", ".tenv", "expected a tenv entry form, got ()"),
        ("(tenv (bounds 2 (pool (I)) (pos-base 0)) (fax-arity))", ".tenv",
         "(fax-arity …) takes 1 field, got 0"),
        ("(seq (atom+ (x)))", ".seq", "expected a name, got (x)"),
        # numbers and address parts are ASCII naturals
        ("(pos 0 (I -1) (daimon 0.-1))", ".dsn", "expected a number, got -1"),
        ("(daimon 0.-1)", ".dsn", "expected an address, got 0.-1"),
        ("(daimon ١)", ".dsn", "expected an address, got ١"),
        ("(conj-e 1_0 (const a (atom A)))", ".gt",
         "expected a number, got 1_0"),
        ("(conj-e +1 (const a (atom A)))", ".gt", "expected a number, got +1"),
        ("(conj-e ١ (const a (atom A)))", ".gt", "expected a number, got ١"),
        ("(behaviour (bounds +2 (pool (I)) (pos-base 0)) (generators))",
         ".bhv", "expected a number, got +2"),
        ("(tenv (bounds 2 (pool (I)) (pos-base 0)) (fuel 1_000))", ".tenv",
         "expected a number, got 1_000"),
        # a premise per index, so no index repeats
        ("(pos 0 (I 0 0) (neg 0.0) (neg 0.0))", ".dsn",
         "positive node ramification repeats an index"),
        # what the bounds, a generator or a net refuses names the file too
        ("(behaviour (bounds 0 (pool (I)) (pos-base 0)) (generators))",
         ".bhv", "depth must be at least 1"),
        ("(tenv (bounds 0 (pool (I)) (pos-base 9)))", ".tenv",
         "depth must be at least 1"),
        ("(behaviour (bounds 1 (pool (I)) (pos-base 0)) (generators "
         "(daimon 1)))", ".bhv",
         "a generator on ⊢ 1 is off the bounds' base ⊢ 0"),
        ("(net (daimon 0) (daimon 0))", ".net",
         "condition (2): address 0 occurs twice with the same polarity"),
        # a lexical fault names its line and column
        ("(impl-i (var x (atom A))\n  (var x (atom A))", ".gt",
         "line 2, column 19: unclosed '('"),
        ("(daimon 0))", ".dsn", "line 1, column 11: trailing input ')'"),
        ("", ".frm", "line 1, column 1: unexpected end of input"),
    ])
    def test_malformed_file_exits_2(self, tmp_path, capsys, text, suffix,
                                    message):
        path = tmp_path / f"bad{suffix}"
        path.write_text(text, encoding="utf-8")
        status, out, err = run(capsys, "check", str(path))
        assert (status, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("pool", [
        "(pool (I 0) (I 0))", "(pool (I 0 0))", "(pool (I 0 1) (I 1 0))"])
    def test_repeats_in_a_pool_exit_2(self, tmp_path, capsys, pool):
        path = tmp_path / "bad.bhv"
        path.write_text(f"(behaviour (bounds 1 {pool} (pos-base 0)) "
                        "(generators))", encoding="utf-8")
        assert run(capsys, "check", str(path)) == (
            2, "", f"error: {path}: the pool repeats an index or a "
                   "ramification\n")

    def test_universe_over_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        # a cap of 1000 in place of 10**6, so the enumeration gives up at once
        monkeypatch.setattr(UniverseBounds.__init__, "__defaults__", (1000,))
        path = tmp_path / "big.bhv"
        path.write_text("(behaviour (bounds 3 (pool (I) (I 0) (I 1) (I 0 1))"
                        " (pos-base 0)) (generators (pos 0 (I))))")
        status, _, err = run(capsys, "check", str(path))
        assert (status, err) == (2, f"error: {path}: universe exceeds cap "
                                    "1000\n")

    def test_a_wide_pool_is_refused_at_once(self, tmp_path, capsys):
        """The dual universe of ⊢ 0 at depth 1 over 40 ramifications has
        2^40 designs or more; counting them takes a product, not a sum over
        every subset of the pool."""
        pool = " ".join(["(I" + "".join(f" {i}" for i in I) + ")"
                         for n in range(3)
                         for I in itertools.combinations(range(9), n)][:40])
        path = tmp_path / "wide.bhv"
        path.write_text(f"(behaviour (bounds 1 (pool {pool}) (pos-base 0)) "
                        "(generators))")
        start = time.perf_counter()
        status, _, err = run(capsys, "check", str(path))
        assert time.perf_counter() - start < 2
        assert (status, err) == (2, f"error: {path}: universe exceeds cap "
                                    "1000000\n")

    def test_a_wide_ramification_is_counted_at_once(self, tmp_path, capsys):
        """The dual universe of ⊢ 0 at depth 3 over one ramification of 7
        indices: a positive node's context splits 8 ways per address, and
        counting sums over how many addresses each child takes, not over
        every split."""
        path = tmp_path / "wide.bhv"
        path.write_text("(behaviour (bounds 3 (pool (I 0 1 2 3 4 5 6)) "
                        "(pos-base 0)) (generators))")
        start = time.perf_counter()
        status, _, err = run(capsys, "check", str(path))
        assert time.perf_counter() - start < 1
        assert (status, err) == (2, f"error: {path}: universe exceeds cap "
                                    "1000000\n")

    @pytest.mark.parametrize("suffix", [".gt", ".seq", ".tenv"])
    def test_translate_refuses_out_of_another_format(self, tmp_path, capsys,
                                                     suffix):
        """--out is checked before anything is translated or printed."""
        out = tmp_path / f"x{suffix}"
        assert run(capsys, "translate", "--term", str(DATA / "copycat.gt"),
                   "--env", str(DATA / "zero-env.tenv"), "--out", str(out)) \
            == (2, "", f"error: {out}: expected a .dsn file\n")
        assert not out.exists()

    def test_translate_out_in_a_missing_directory_exits_2(self, tmp_path,
                                                          capsys):
        out = tmp_path / "missing" / "x.dsn"
        status, printed, err = run(
            capsys, "translate", "--term", str(DATA / "copycat.gt"),
            "--env", str(DATA / "zero-env.tenv"), "--out", str(out))
        assert (status, err) == (2, f"error: {out}: No such file or "
                                    "directory\n")
        assert printed.startswith("(- 0.0 ")

    def test_a_directory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.gt"
        path.mkdir()
        assert run(capsys, "check", str(path)) == (
            2, "", f"error: {path}: Is a directory\n")

    def test_a_file_not_in_utf_8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.gt"
        path.write_bytes(b"\xff(const a (atom A))")
        assert run(capsys, "check", str(path)) == (
            2, "", f"error: {path}: 'utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte\n")


#: a .tenv of the benchmark's shape: A is the behaviour 1, generated by
#: the bomb, and ⊥ is 0
BOUNDS_TEXT = "(bounds 2 (pool (I) (I 0) (I 1)) (pos-base 9))"
ONE_ENV = (f"(tenv {BOUNDS_TEXT} (fax-arity 0) (atom (atom A) (behaviour "
           f"{BOUNDS_TEXT} (generators (pos 9 (I))))) (atom (absurd) "
           f"(behaviour {BOUNDS_TEXT} (generators (daimon 9)))))")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def identity_chain_text(n):
    """(λx.x) applied to (λx.x) applied to … a, n redexes deep, built
    without the recursive printer."""
    text = "(const a (atom A))"
    for i in range(n):
        x = f"(var x{i} (atom A))"
        text = f"(impl-e (impl-i {x} {x}) {text})"
    return text


def projections_text(n):
    """n first projections over an n-deep left-nested pair: the redex is the
    innermost projection, at the bottom of the spine."""
    text = "(const a (atom A))"
    for _ in range(n):
        text = f"(conj-i {text} (const b (atom B)))"
    for _ in range(n):
        text = f"(conj-e 1 {text})"
    return text


#: ONE_ENV with an atom B on ⊢ 7, 8, a base with no counter-test base, so
#: that building B's behaviour is refused
LAZY_ENV = ONE_ENV[:-1] + (" (atom (atom B) (behaviour (bounds 2 (pool (I) "
                           "(I 0) (I 1)) (pos-base 7 8)) (generators))))")
COPYCAT_A = "(impl-i (var x (atom A)) (var x (atom A)))"


def recorder(monkeypatch, name, *modules):
    """The argument tuples of every call of groundkit's function `name`,
    made through any of the modules."""
    calls = []
    real = getattr(importlib.import_module(f"groundkit.{modules[0]}"), name)
    for module in modules:
        monkeypatch.setattr(importlib.import_module(f"groundkit.{module}"),
                            name, lambda *a: calls.append(a) or real(*a))
    return calls


class TestTranslateWork:
    """translate does its term's work only, once per call: it builds an
    atom's behaviour when the term's type names it, at the env's fuel, and
    typechecks the term once."""

    def translate(self, tmp_path, capsys, term, env=ONE_ENV):
        return run(capsys, "translate", "--term", write(tmp_path, "t.gt", term),
                   "--env", write(tmp_path, "env.tenv", env))

    def test_a_copycat_builds_one_atom_and_five_universes(
            self, tmp_path, monkeypatch, capsys):
        universes = recorder(monkeypatch, "enumerate_universe", "behaviours",
                             "translate")
        built = recorder(monkeypatch, "behaviour", "translate")
        status, out, _ = self.translate(tmp_path, capsys, COPYCAT_A)
        assert (status, out.splitlines()[-1]) == (
            0, "classification: PseudoGround(not-material)")
        assert len(universes) <= 5
        # A's behaviour at its home, not ⊥'s, then the arrow A → A
        assert [bounds.base for _, bounds, _ in built] == [
            sx.syntax_from_text(base, "base")
            for base in ("(pos-base 9)", "(neg-base 0.0 0.1)")]

    def test_an_application_enumerates_two_universes(
            self, tmp_path, monkeypatch, capsys):
        """A's orthogonal (9⊢) and its free incarnation (⊢9)."""
        universes = recorder(monkeypatch, "enumerate_universe", "behaviours",
                             "translate")
        status, out, _ = self.translate(
            tmp_path, capsys, f"(impl-e {COPYCAT_A} (const c (atom A)))")
        assert (status, out.splitlines()[-1]) == (0, "classification: Ground")
        assert len(universes) <= 2

    @pytest.mark.parametrize("term", [
        COPYCAT_A, f"(impl-e {COPYCAT_A} (const c (atom A)))",
        identity_chain_text(3)])
    def test_one_typecheck_per_call(self, tmp_path, monkeypatch, capsys,
                                    term):
        calls = recorder(monkeypatch, "typecheck", "terms", "translate")
        status, _, _ = self.translate(tmp_path, capsys, term)
        assert status == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("term", [
        COPYCAT_A, "(impl-i (var x (absurd)) (var x (absurd)))",
        f"(impl-e {COPYCAT_A} (const c (atom A)))"])
    def test_an_atom_the_term_does_not_name_is_not_built(
            self, tmp_path, capsys, term):
        assert self.translate(tmp_path, capsys, term, LAZY_ENV) \
            == self.translate(tmp_path, capsys, term)

    def test_an_atom_the_term_names_is_built(self, tmp_path, capsys):
        """The fax is printed; classifying it in B → B builds B."""
        status, out, err = self.translate(
            tmp_path, capsys, COPYCAT_A.replace("A", "B"), LAZY_ENV)
        assert (status, err) == (2, "error: base ⊢ 7, 8 has no dual bases\n")
        assert "classification" not in out

    def test_check_builds_every_atom(self, tmp_path, capsys):
        path = write(tmp_path, "env.tenv", LAZY_ENV)
        assert run(capsys, "check", path) == (
            2, "", f"error: {path}: base ⊢ 7, 8 has no dual bases\n")

    @pytest.mark.parametrize("env", [
        ONE_ENV.replace("(tenv ", "(tenv (fuel 0) "),
        ONE_ENV[:-1] + " (fuel 0))"], ids=["before", "after"])
    def test_an_atom_is_built_at_the_envs_fuel(self, tmp_path, capsys, env):
        """Wherever (fuel 0) stands, no counter-test of A or ⊥ is decided
        within it."""
        assert run(capsys, "check", write(tmp_path, "one.tenv", ONE_ENV)) \
            == (0, "ok: parsed\n", "")
        path = write(tmp_path, "env.tenv", env)
        assert run(capsys, "check", path) == (
            2, "", f"error: {path}: fuel-exhausted: an orthogonality test "
                   "needs more than 0 action pairs\n")


class CharSink(io.TextIOBase):
    """An output stream that keeps only how many characters were written to
    it and the longest single write."""

    def __init__(self):
        self.chars = self.widest = 0

    def write(self, s):
        self.chars += len(s)
        self.widest = max(self.widest, len(s))
        return len(s)


class TestDeepInput:
    def chain(self, tmp_path, n):
        path = tmp_path / f"chain-{n}.gt"
        path.write_text(identity_chain_text(n))
        return str(path)

    def test_reduce_deep_chain_in_one_pass(self, tmp_path, capsys):
        status, out, _ = run(capsys, "reduce", "--term",
                             self.chain(tmp_path, 400))
        assert status == 0
        assert sum(line.startswith("step ")
                   for line in out.splitlines()) == 400
        assert out.endswith("canonical:\n(const a (atom A))\n")

    def test_reduce_ten_thousand_redexes(self, tmp_path, capsys):
        status, out, _ = run(capsys, "reduce", "--format", "trace-lines",
                             "--term", self.chain(tmp_path, 10_000))
        assert status == 0
        assert sum(line.startswith("step ")
                   for line in out.splitlines()) == 10_000
        assert out.endswith("canonical:\n(const a (atom A))\n")

    def test_reduce_projections_over_a_deep_pair(self, tmp_path, capsys):
        n = 1000
        path = tmp_path / "projections.gt"
        path.write_text(projections_text(n))
        status, out, _ = run(capsys, "reduce", "--term", str(path))
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "step 1: conj-e at " + ".".join("0" * (n - 1))
        assert sum(line.startswith("step ") for line in lines) == n
        assert out.endswith("canonical:\n(const a (atom A))\n")

    @pytest.mark.parametrize("n", [1500, 10_000])
    def test_check_and_ground_deep_chain(self, tmp_path, capsys, n):
        status, out, _ = run(capsys, "check", self.chain(tmp_path, n))
        assert (status, out) == (0, "ok: |- (atom A)\n")
        status, out, _ = run(capsys, "ground", "--term",
                             self.chain(tmp_path, n))
        assert (status, out) == (1, "no: constant a names no derivation\n")

    def test_translate_ten_thousand_applications(self, tmp_path, capsys):
        status, out, _ = run(capsys, "translate",
                             "--term", self.chain(tmp_path, 10_000),
                             "--env", write(tmp_path, "one.tenv", ONE_ENV))
        assert (status, out.splitlines()[-1]) == (0, "classification: Ground")

    def test_check_and_ground_deeply_typed_identity(self, tmp_path, capsys):
        ty = "(atom A)"
        for _ in range(10_000):
            ty = f"(impl (atom A) {ty})"
        path = tmp_path / "identity.gt"
        path.write_text(f"(impl-i (var x {ty}) (var x {ty}))")
        status, out, _ = run(capsys, "check", str(path))
        assert status == 0 and out.startswith("ok: |- (impl (impl (atom A)")
        status, out, _ = run(capsys, "ground", "--term", str(path))
        assert (status, out) == (0, "yes\n")

    @pytest.mark.parametrize("link, f, status", [
        ("(tensor {} (atom+ B))", "(atom+ A)", 1),
        ("(plus (zero) {})", "(one)", 0)])
    def test_focus_deep_chain(self, tmp_path, capsys, link, f, status):
        """A 10⁴-deep ⊗ chain of atoms has no derivation; a 10⁴-deep
        ⊕ chain of zeros that ends in 1 has one."""
        for _ in range(10_000):
            f = link.format(f)
        path = tmp_path / "chain.seq"
        path.write_text(f"(seq {f})")
        got, out, _ = run(capsys, "focus", "--sequent", str(path))
        assert got == status
        assert out.startswith("no derivation" if status else "pos-cluster")

    def test_ground_deep_pair_exits_2(self, tmp_path, capsys):
        """Groundhood still recurses over the parts of a pair."""
        text = "(const a (atom A))"
        for _ in range(1500):
            text = f"(conj-i {text} (const b (atom B)))"
        path = tmp_path / "pair.gt"
        path.write_text(text)
        status, _, err = run(capsys, "ground", "--term", str(path))
        assert status == 2
        assert "nested too deeply" in err

    def test_pretty_reduce_never_exits_1(self, tmp_path, capsys):
        status, out, err = run(capsys, "reduce", "--format", "pretty",
                               "--term", self.chain(tmp_path, 400))
        assert status in (0, 2)
        assert "Traceback" not in out + err
        if status == 2:
            assert "nested too deeply" in err

    def test_pretty_reduce_deep_chain(self, tmp_path, capsys):
        status, out, _ = run(capsys, "reduce", "--format", "pretty",
                             "--term", self.chain(tmp_path, 400))
        assert status == 0
        assert sum(line.startswith("step ")
                   for line in out.splitlines()) == 400

    @pytest.mark.parametrize("text", [identity_chain_text(300),
                                      projections_text(200)],
                             ids=["chain-300", "projections-200"])
    def test_pretty_reduce_holds_a_few_steps_not_the_output(self, tmp_path,
                                                            text):
        """Printing each step from the previous step's text keeps at most a
        few steps' text and nodes: what `pretty` allocates beyond
        `trace-lines` stays under a small multiple of the longest step's
        text, far below the whole output."""
        path = tmp_path / "t.gt"
        path.write_text(text)

        def peak(fmt):
            sink = CharSink()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    assert main(["reduce", "--format", fmt,
                                 "--term", str(path)]) == 0
                return tracemalloc.get_traced_memory()[1], sink
            finally:
                tracemalloc.stop()

        with contextlib.redirect_stdout(CharSink()):   # what a first run
            main(["reduce", "--term", str(path)])       # builds once
        base, _ = peak("trace-lines")
        pretty, sink = peak("pretty")
        bound = 32 * sink.widest + 64 * 1024
        assert bound < sink.chars / 2
        assert pretty - base < bound

    def test_deep_chain_dump_load_dump(self, tmp_path):
        # compares the printed text with the text the chain was read from
        first, second = tmp_path / "first.gt", tmp_path / "second.gt"
        sx.dump(sx.load(self.chain(tmp_path, 900)), str(first))
        sx.dump(sx.load(str(first)), str(second))
        assert first.read_text() == second.read_text() \
            == identity_chain_text(900) + "\n"


#: a file of each extension: the form alone, and inside its container
CONTAINERS = {
    ".frm": [lambda f: f], ".gt": [lambda f: f],
    ".dsn": [lambda f: f, lambda f: ["pos", "0", ["I", "0"], f]],
    ".net": [lambda f: f, lambda f: ["net", f]],
    ".bhv": [lambda f: f, lambda f: [
        "behaviour", ["bounds", "1", ["pool", ["I"]], ["pos-base", "0"]],
        ["generators", f]]],
    ".seq": [lambda f: f, lambda f: ["seq", f]],
    ".tenv": [lambda f: f, lambda f: ["tenv", f],
              lambda f: ["tenv", ["atom", f, f]]],
}
ATOMS = st.sampled_from(["A", "x", "?x", "0", "1", "-1", "0.1", "ε", "I"])
FORMS = st.recursive(
    ATOMS | st.just([]),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(sorted(sx._GRAMMAR)),
                  st.lists(kids, max_size=4)).map(lambda h: [h[0], *h[1]]),
        st.lists(kids, min_size=1, max_size=3)),
    max_leaves=12)


class TestRandomForms:
    @settings(deadline=None)
    @given(form=FORMS)
    def test_check_exits_0_1_or_2(self, tmp_path_factory, form):
        where = tmp_path_factory.mktemp("forms")
        for suffix, wraps in CONTAINERS.items():
            for k, wrap in enumerate(wraps):
                path = where / f"form{k}{suffix}"
                path.write_text(sx.write_sexpr(wrap(form)))
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert main(["check", str(path)]) in (0, 1, 2)


class TestParserBuiltOnce:
    """main builds its parser once per process, and prints what a fresh
    parser would: answers, help, usage and errors."""

    ARGVS = [["check", str(DATA / "identity-apply.gt")],
             ["reduce", "--term", str(DATA / "identity-apply.gt")],
             ["--help"], ["reduce", "--help"], ["reduce"], ["no-such-verb"],
             ["reduce", "--format", "nope", "--term", "x.gt"]]

    def outputs(self, capsys):
        out = []
        for argv in self.ARGVS:
            try:
                status = main(list(argv))
            except SystemExit as e:
                status = e.code
            out.append((status, *capsys.readouterr()))
        return out

    def test_same_bytes_as_fresh_parsers(self, monkeypatch, capsys):
        import groundkit.cli as cli
        assert cli.build_parser() is cli.build_parser()
        cached = self.outputs(capsys) + self.outputs(capsys)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = self.outputs(capsys)
        assert cached == fresh + fresh
        assert [status for status, _, _ in fresh] == [0, 0, 0, 0, 2, 2, 2]


class TestTenv:
    def test_check_reads_tenv(self, capsys):
        status, out, _ = run(capsys, "check", str(DATA / "zero-env.tenv"))
        assert (status, out) == (0, "ok: parsed\n")

    @pytest.mark.parametrize("text, message", [
        ("(behaviour)", "expected a (tenv ...) form"),
        ("(tenv (fax-arity 0))", "tenv needs a (bounds ...) entry"),
        ("(tenv (colour red))", "unknown tenv entry 'colour'"),
        ("(tenv (bounds 2 (pool (I) (I 0)) (pos-base 9)) (atom (atom A) "
         "(behaviour (bounds 1 (pool (I)) (pos-base 9)) "
         "(generators (daimon 9)))))",
         "atom (atom A): its behaviour's depth or pool is not the env's"),
    ])
    def test_malformed_env_exits_2(self, tmp_path, capsys, text, message):
        env = tmp_path / "bad.tenv"
        env.write_text(text)
        status, _, err = run(capsys, "translate", "--term",
                             str(DATA / "copycat.gt"), "--env", str(env))
        assert status == 2
        assert err == f"error: {env}: {message}\n"

    def test_env_of_another_format_exits_2(self, capsys):
        status, _, err = run(capsys, "translate", "--term",
                             str(DATA / "copycat.gt"),
                             "--env", str(DATA / "one.bhv"))
        assert status == 2
        assert "expected a .tenv file" in err


def test_repl_has_no_fuel_option(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
    with pytest.raises(SystemExit) as exc:
        main(["repl", "--fuel", "5", "--term",
              str(DATA / "identity-apply.gt")])
    assert exc.value.code == 2


class TestFuelExhaustion:
    @pytest.mark.parametrize("render", ["snapshots", "trace-lines"])
    def test_interact_exits_2(self, capsys, render):
        status, out, _ = run(capsys, "interact", "--net",
                             str(DATA / "convergent-pair.net"),
                             "--render", render, "--fuel", "1")
        assert status == 2
        assert out.rstrip().endswith("fuel exhausted")

    def test_translate_exits_2(self, tmp_path, capsys):
        # the constant is the generator, so the application takes five
        # action pairs: one at 0.0, then two in each of the fax's two
        # output branches
        term = tmp_path / "apply.gt"
        term.write_text("(impl-e (impl-i (var u (atom B)) (var u (atom B)))"
                        " (const c (atom B)))")
        bounds = "(bounds 3 (pool (I) (I 0) (I 1)) (pos-base 5))"
        generator = ("(pos 5 (I 0) (neg 5.0 (branch (I 0) (pos 5.0.0 (I)))"
                     " (branch (I 1) (pos 5.0.1 (I)))))")
        env = tmp_path / "env.tenv"
        env.write_text(f"(tenv (fuel 4) {bounds} (fax-arity 1) (atom (atom B)"
                       f" (behaviour {bounds} (generators {generator}))))")
        status, out, err = run(capsys, "translate", "--term", str(term),
                               "--env", str(env))
        assert status == 2
        assert "fuel-exhausted" in out + err

    def test_behaviour_exits_2(self, capsys):
        status, _, err = run(capsys, "behaviour", "--behaviour",
                             str(DATA / "one.bhv"), "--fuel", "0")
        assert status == 2
        assert "fuel-exhausted" in err

    @pytest.mark.parametrize("argv", [
        ["reduce", "--term", "identity-apply.gt"],
        ["ground", "--term", "identity-apply.gt"],
        ["interact", "--net", "convergent-pair.net"],
        ["orth", "daimon.dsn", "skunk.dsn"],
        ["behaviour", "--behaviour", "one.bhv"],
        ["incarnate", "--design", "bomb.dsn", "--behaviour", "one.bhv"],
        ["classify", "--design", "bomb.dsn", "--behaviour", "one.bhv"],
    ], ids=lambda argv: argv[0])
    def test_negative_fuel_is_a_usage_error(self, capsys, argv):
        argv = [str(DATA / a) if (DATA / a).is_file() else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--fuel", "-1"])
        assert exc.value.code == 2
        assert "--fuel: invalid natural value: '-1'" in capsys.readouterr().err

    def test_net_repl_back_restores_listeners(self):
        from conftest import convergent_pair
        from groundkit.cli import _repl_net
        from groundkit.interaction import listeners, render_state
        net = convergent_pair()
        start = "\n".join(render_state(net.principal,
                                       listeners(net.designs))) + "\n"
        buf = io.StringIO()
        _repl_net(net, inp=io.StringIO("step\nback\n"), out=buf)
        assert buf.getvalue().startswith(start)
        assert buf.getvalue().endswith(start)


def design_chain_text(n, positive_first):
    """n rules alternating in polarity at 0, 0.0, 0.0.0, …, each with the
    ramification {0}, built without the printer.  The last rule ends in
    (daimon …) if it is negative, in an empty (neg …) if it is positive."""
    parts = []
    for k in range(n):
        at = ".".join("0" * (k + 1))
        rule_positive = (k % 2 == 0) == positive_first
        parts.append(f"(pos {at} (I 0) " if rule_positive
                     else f"(neg {at} (branch (I 0) ")
    end = ".".join("0" * (n + 1))
    leaf = f"(neg {end})" if rule_positive else f"(daimon {end})"
    return "".join(parts) + leaf + "".join(
        ")" if p.startswith("(pos") else "))" for p in parts)


class TestDeepDesigns:
    """A design 1,000 rule pairs deep gets an answer from every verb that
    reads designs.  Each rule adds an index to the address, so the file is
    quadratic in the depth: 4.0 MB at 1,000 pairs."""

    PAIRS = 1000

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("deep")
        d = design_chain_text(2 * self.PAIRS, positive_first=True)
        e = design_chain_text(2 * self.PAIRS, positive_first=False)
        paths = {"d": root / "d.dsn", "e": root / "e.dsn",
                 "net": root / "stuck.net"}
        paths["d"].write_text(d)
        paths["e"].write_text(e)
        paths["net"].write_text(f"(net {d} (neg 0))")
        return {k: str(v) for k, v in paths.items()}

    def test_check_and_validate(self, capsys, files):
        assert run(capsys, "check", files["d"])[:2] == (0, "ok: parsed\n")
        assert run(capsys, "design-validate", "--design", files["e"])[:2] \
            == (0, "ok\n")

    def test_orth_runs_every_pair(self, capsys, files):
        assert run(capsys, "orth", files["d"], files["e"])[:2] == (0, "yes\n")

    def test_classify_and_incarnate(self, capsys, files):
        for verb in ("classify", "incarnate"):
            status, out, err = run(capsys, verb, "--design", files["d"],
                                   "--behaviour", str(DATA / "one.bhv"))
            assert status in (0, 1) and not err, (verb, out, err)

    def test_snapshots(self, capsys, files):
        status, out, err = run(capsys, "interact", "--net", files["net"],
                               "--render", "snapshots")
        assert status == 1 and not err
        assert out.endswith("== result ==\ndiverges at 0\n")
        assert len(out.splitlines()) == 2 * self.PAIRS + 7


#: a demo file of each extension a verb's option expects
RIGHT = {".gt": "copycat.gt", ".dsn": "bomb.dsn", ".bhv": "one.bhv",
         ".net": "convergent-pair.net", ".tenv": "zero-env.tenv",
         ".seq": "par-with-plus.seq"}
VERB_FILES = [
    ["reduce", "--term", ".gt"], ["ground", "--term", ".gt"],
    ["design-validate", "--design", ".dsn"], ["interact", "--net", ".net"],
    ["orth", ".dsn", ".dsn"], ["behaviour", "--behaviour", ".bhv"],
    ["incarnate", "--design", ".dsn", "--behaviour", ".bhv"],
    ["classify", "--design", ".dsn", "--behaviour", ".bhv"],
    ["translate", "--term", ".gt", "--env", ".tenv"],
    ["focus", "--sequent", ".seq"], ["repl", "--term", ".gt"],
    ["repl", "--net", ".net"]]


@pytest.mark.parametrize("argv, k", [
    (argv, k) for argv in VERB_FILES
    for k, word in enumerate(argv) if word in RIGHT],
    ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_a_file_of_another_extension_exits_2(capsys, argv, k):
    """Every verb checks the extension of each file it reads."""
    ext = argv[k]
    wrong = str(DATA / ("bomb.dsn" if ext == ".gt" else "copycat.gt"))
    argv = [str(DATA / RIGHT[w]) if w in RIGHT else w for w in argv]
    argv[k] = wrong
    assert run(capsys, *argv) == (2, "", f"error: {wrong}: expected a "
                                         f"{ext} file\n")


@pytest.mark.parametrize("argv, message", [
    (["interact", "--net", "fid.net"], "(fid …) is not a negative design"),
    (["repl", "--net", "fid.net"], "(fid …) is not a negative design"),
    (["check", "fid.net"], "(fid …) is not a negative design"),
    (["orth", "daimon.dsn", "neg.dsn"],
     "(daimon …) is not a negative design"),
    (["check", "daimon.dsn"], "(daimon …) is not a negative design"),
    (["check", "neg-branch.dsn"], "(neg …) is not a positive design")],
    ids=" ".join)
def test_a_premise_of_the_wrong_polarity_exits_2(tmp_path, capsys, argv,
                                                 message):
    """A pos rule's premises are neg forms, and a branch's design is a
    daimon, fid or pos form: any other is a parse error, as a premise
    count that does not match the ramification is."""
    files = {
        "fid.net": "(net (pos 0 (I 1) (neg 0.1 (branch (I 1) (pos 0.1.1 "
                   "(I))))) (neg 0 (branch (I 1) (pos 0.1 (I 1) (fid)))))",
        "daimon.dsn": "(pos 0 (I 1) (daimon))",
        "neg.dsn": "(neg 0 (branch (I 1) (pos 0.1 (I))))",
        "neg-branch.dsn": "(neg 0 (branch (I 1) (neg 0.1)))"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    bad = next(a for a in argv if a.endswith((".net", ".dsn")))
    assert run(capsys, *argv) == (2, "", f"error: {bad}: {message}\n")


class TestInteractRunsOnce:
    """`interact --render snapshots` takes its status from the one run that
    draws the snapshots."""

    def test_snapshots(self, monkeypatch, capsys):
        runs = count_runs(monkeypatch)
        status, out, _ = run(capsys, "interact", "--net",
                             str(DATA / "convergent-pair.net"),
                             "--render", "snapshots")
        golden = ROOT / "tests" / "golden" / "convergent_pair_snapshots.txt"
        assert (status, out) == (0, golden.read_text())
        assert len(runs) == 1

    @pytest.mark.parametrize("fuel, status, end", [
        ("1", 2, "fuel exhausted"), ("100", 0, "† ⊢")])
    def test_fuel(self, monkeypatch, capsys, fuel, status, end):
        runs = count_runs(monkeypatch)
        got, out, _ = run(capsys, "interact", "--net",
                          str(DATA / "convergent-pair.net"),
                          "--render", "snapshots", "--fuel", fuel)
        assert (got, out.splitlines()[-1], len(runs)) == (status, end, 1)

    def test_uncut_focus_prints_nothing(self, tmp_path, monkeypatch, capsys):
        # the left design focuses 0 again once its listener is consumed
        net = tmp_path / "uncut.net"
        net.write_text("(net (pos 0 (I 1) (neg 0.1 (branch (I 1) (pos 0 (I))"
                       "))) (neg 0 (branch (I 1) (pos 0.1 (I 1) (neg 0.1.1)))))")
        runs = count_runs(monkeypatch)
        assert run(capsys, "interact", "--net", str(net), "--render",
                   "snapshots") == (2, "", "error: no design listens at 0\n")
        assert len(runs) == 1
