"""A catalogue of mutants: edits of `src/` that named tests must catch.

Each row names one edit, an exact text of a `src/` file and what replaces
it, and the test node ids that must fail once it is made.  The runner
copies the tree (`src/`, and the tests with the files they read) to a
temporary directory, makes one row's edit there, runs the row's tests
with `-x` in a subprocess, and lists the mutants that survive:

    python tests/mutants.py [name ...]

It first runs every named test on the unedited copy, which must pass.
Exit 0 when every mutant is killed, 1 when one survives or a row is
stale.  The test suite checks only that each row still applies
(`test_hygiene.test_every_mutant_applies`).
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).parent.parent
COPIED = ("src", "tests", "demos", "bench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                    # relative to src/
    old: str                     # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]       # node ids, relative to the root


RENDER = "tests/test_interaction.py::TestRenderDesign::" \
    "test_agrees_with_the_recursive_renderer"

MUTANTS = [
    Mutant("render-indent-one-level-deeper", "groundkit/interaction.py",
           "lines.append(f\"{'  ' * depth}{rule}",
           "lines.append(f\"{'  ' * (depth + 1)}{rule}",
           (RENDER,)),
    Mutant("render-premises-in-forward-order", "groundkit/interaction.py",
           "for p in reversed(premises)]",
           "for p in premises]",
           (RENDER,)),
    Mutant("render-indent-parameter-put-back", "groundkit/interaction.py",
           "                  mark: frozenset[Address] = frozenset()) "
           "-> list[str]:",
           "                  mark: frozenset[Address] = frozenset(),\n"
           "                  indent: int = 0) -> list[str]:",
           ("tests/test_hygiene.py::"
            "test_every_defaulted_parameter_is_passed",)),
    Mutant("package-reexports-translate", "groundkit/__init__.py",
           '__version__ = "0.1.0"\n',
           '__version__ = "0.1.0"\n\nfrom .translate import translate\n',
           ("tests/test_hygiene.py::test_the_package_reexports_nothing",)),
    Mutant("focused-search-without-its-axiom-check", "groundkit/focusing.py",
           "    if _axiom_pair(seq):\n"
           "        return ClusteredDerivation(seq, \"axiom\")\n",
           "",
           ("tests/test_focusing.py::TestFocusedSearch::test_worked_example",
            "tests/test_focusing.py::TestRoundtripCorpus::"
            "test_random_tautologies")),
    # U(⊢ξ) at depth d + 1 loses the empty-ramification positive nodes
    # that U(⊢ξ) at depth d holds
    Mutant("universe-drops-the-empty-ramification-above-depth-1",
           "groundkit/behaviours.py",
           "                for ram in pool:\n",
           "                for ram in pool[depth > 1:]:\n",
           ("tests/test_behaviours.py::TestBoundsMonotonicity::"
            "test_verdicts_move_only_as_the_bounds_allow",)),
    # mutants that earlier changes recorded in CHANGES.md
    Mutant("syntax-hashes-its-fields", "groundkit/sharing.py",
           "    def _made(self) -> None:\n",
           "    def __hash__(self):\n"
           "        return hash(self._key)\n\n"
           "    def _made(self) -> None:\n",
           ("tests/test_hygiene.py::"
            "test_interned_classes_compare_and_hash_by_identity",)),
    Mutant("main-catches-value-error", "groundkit/cli.py",
           "    except Refusal as e:\n"
           "        print(f\"error: {e}\", file=sys.stderr)\n",
           "    except (Refusal, ValueError) as e:\n"
           "        print(f\"error: {e}\", file=sys.stderr)\n",
           ("tests/test_hygiene.py::"
            "test_the_command_line_catches_refusals_only",)),
    Mutant("arrow-keeps-only-the-first-minimal-branch",
           "groundkit/translate.py",
           "_minimal, map(kept.get, keys)))]",
           "lambda bs: _minimal(bs)[:1], map(kept.get, keys)))]",
           ("tests/test_translation.py::TestArrowAgainstTheFilter::"
            "test_agrees_with_the_filter",)),
]


def stale(m: Mutant) -> list[str]:
    """Why the row no longer applies to the tree at ROOT, if it does not."""
    problems = []
    n = (ROOT / "src" / m.path).read_text().count(m.old)
    if n != 1:
        problems.append(f"{m.name}: its old text occurs {n} times in "
                        f"{m.path}")
    for node in m.tests:
        file, *_, name = node.split("::")
        path = ROOT / file
        if not path.is_file() \
                or f"def {name.split('[')[0]}(" not in path.read_text():
            problems.append(f"{m.name}: no test {node}")
    return problems


def _pytest(tree: pathlib.Path, nodes) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *nodes], cwd=tree, env=env, capture_output=True, text=True,
        check=False)


def _copy(into: pathlib.Path) -> pathlib.Path:
    tree = into / "tree"
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=ignore)
        else:
            tree.mkdir(parents=True, exist_ok=True)
            shutil.copy(source, tree / name)
    return tree


def run(rows) -> list[str]:
    """The names of the mutants in rows that survive; a stale row, or a
    test that fails on the unedited tree, counts as a survivor."""
    survivors = []
    for m in rows:
        for problem in stale(m):
            print(f"stale     {problem}")
            survivors.append(m.name)
    rows = [m for m in rows if m.name not in survivors]
    with tempfile.TemporaryDirectory() as tmp:
        tree = _copy(pathlib.Path(tmp))
        clean = _pytest(tree, sorted({t for m in rows for t in m.tests}))
        if clean.returncode != 0:
            print("the named tests fail on the unedited tree:\n"
                  + clean.stdout[-2000:])
            return survivors + [m.name for m in rows]
        for m in rows:
            target = tree / "src" / m.path
            text = target.read_text()
            target.write_text(text.replace(m.old, m.new))
            done = _pytest(tree, m.tests)
            target.write_text(text)
            # 1: a test failed; anything else (no tests, a usage error)
            # proves nothing
            killed = done.returncode == 1
            print(f"{'killed' if killed else 'SURVIVED':9} {m.name}")
            if not killed:
                survivors.append(m.name)
    return survivors


if __name__ == "__main__":
    wanted = set(sys.argv[1:])
    rows = [m for m in MUTANTS if not wanted or m.name in wanted]
    if unknown := wanted - {m.name for m in rows}:
        sys.exit(f"no mutant named {', '.join(sorted(unknown))}")
    survivors = run(rows)
    print(f"{len(rows) - len(survivors)} of {len(rows)} mutants killed")
    sys.exit(1 if survivors else 0)
