"""Every name a groundkit module imports is used in that module, every
top-level function or class it defines is named somewhere else, and every
one of them is reached from the command line or is allowlisted with a
reason.  Every exception class is a `Refusal`, which the command line
reports as the user's fault, or says why not; and the command line catches
nothing else that a bug could raise.

No linter is installed, so this walks the syntax trees with `ast`.
"""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

from groundkit.cli import main
from groundkit.sharing import Refusal

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "groundkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
#: where a use of a groundkit definition may be
USERS = [ROOT / d for d in ("src", "tests", "bench", "demos")]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) \
                and node.returns:
            yield node.returns


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(inner)
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert unused == [], f"{path.name} imports unused names: {unused}"


def referenced_names(node: ast.AST) -> set[str]:
    """Names a piece of code looks up, reads as an attribute, imports, or
    spells out as a string (as in `monkeypatch.setattr(module, "name", …)`)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def test_no_unreferenced_definitions():
    """A top-level def or class counts as used when code outside its own
    definition names it; a recursive call inside it does not count."""
    named = set()
    defined = []                         # (module, name)
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in tree.body:
                names = referenced_names(stmt)
                if path.parent == SRC and isinstance(
                        stmt, ast.FunctionDef | ast.ClassDef):
                    defined.append((path.stem, stmt.name))
                    names.discard(stmt.name)
                named |= names
    scripts = " ".join(p.read_text(encoding="utf-8")
                       for root in USERS for p in sorted(root.rglob("*.sh")))
    unused = [f"{module}.{name}" for module, name in defined
              if name not in named
              and not re.search(rf"\b{name}\b", scripts)]
    assert unused == [], f"never referenced: {unused}"


# ---------------------------------------------------------------------------
# every definition in src/ is reached by a verb

#: why a definition that no verb reaches stays, by its qualified name
BENCH = "called by bench/, which changes only with the benchmark"
GENV = "Prawitz's atomic bases and user operations, waiting for .genv files"
STRATEGY = "the strategy round trip, for focus --to-strategy to check"
UNREACHED = {
    **{f"sexpr.{name}": BENCH for name in (
        "formula_to_sexpr", "formula_from_sexpr", "term_from_sexpr",
        "design_to_sexpr", "design_from_sexpr", "bounds_from_sexpr",
        "behaviour_from_sexpr")},
    "behaviours.full_pool": BENCH,
    "designs.atomic_bomb": BENCH,
    "designs.skunk": "a test fixture: the negative rule with no branches",
    **{name: GENV for name in (
        "formulas.is_closed", "formulas.validate_rule",
        "formulas._mentions_undeclared", "formulas.validate_base",
        "terms.EquationError", "terms.metavars", "terms.validate_equation",
        "terms.GroundEnv.register_op", "terms.GroundEnv.register_equation")},
    **{f"focusing.{name}": STRATEGY for name in (
        "validate_derivation", "strategy_to_derivation",
        "StrategyConversionError")},
    "designs.merge_subdesigns": "the join of two prunings, waiting for the "
                                "cones of a behaviour",
}


def spelled_names(node: ast.AST) -> set[str]:
    """Names a piece of code looks up, reads as an attribute, or spells as
    an identifier string; an import spells none."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out.add(n.value)
    return out


def unreached(src: pathlib.Path) -> set[str]:
    """The definitions of the package at src that no verb reaches, by
    qualified name (module.name, or module.Class.method).

    The names reached start from `cli.main` and from every module's
    import-time statements.  A top-level def or class is reached when its
    name is, and its code then adds its names: a class's bases, decorators,
    class-level statements and dunder methods, which Python calls.  Any
    other method of a reached class is reached when its name is.  A method
    of a class that is not reached is not reported apart from its class."""
    defs = {}                            # qualified name -> node
    names = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef | ast.ClassDef):
                defs[f"{path.stem}.{stmt.name}"] = stmt
                if path.stem == "cli" and stmt.name == "main":
                    names |= spelled_names(stmt)
            elif not isinstance(stmt, ast.Import | ast.ImportFrom):
                names |= spelled_names(stmt)
    reached: set[str] = set()
    while new := [qual for qual, node in defs.items()
                  if qual not in reached and node.name in names]:
        for qual in new:
            reached.add(qual)
            node = defs[qual]
            if isinstance(node, ast.FunctionDef):
                names |= spelled_names(node)
                continue
            for part in node.bases + node.keywords + node.decorator_list:
                names |= spelled_names(part)
            for stmt in node.body:
                if not isinstance(stmt, ast.FunctionDef):
                    names |= spelled_names(stmt)
                    continue
                defs[f"{qual}.{stmt.name}"] = stmt
                if stmt.name.startswith("__") and stmt.name.endswith("__"):
                    names.add(stmt.name)
    return set(defs) - reached


def test_every_definition_is_reached_by_a_verb():
    """What `cli.main` cannot reach is dead, unless the allowlist says why it
    stays; an entry for a definition reached or gone is stale."""
    dead = unreached(SRC)
    assert sorted(dead - set(UNREACHED)) == [], "reached by no verb"
    assert sorted(set(UNREACHED) - dead) == [], "stale allowlist entries"


def test_bench_selftest_passes():
    """bench/ calls the program by name, so deleting a name it calls fails
    here too."""
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("selftest: ok\n")


# ---------------------------------------------------------------------------
# a refusal is the user's fault, and anything else is a bug

#: why an exception class of src/ is not a Refusal, by qualified name
NOT_REFUSALS = {
    "terms.EquationError": "raised only by code no verb reaches: " + GENV,
    "focusing.StrategyConversionError": "raised only by code no verb "
                                        "reaches: " + STRATEGY,
}


def test_every_exception_class_is_a_refusal():
    classes = {f"{path.stem}.{name}": value
               for path in MODULES
               for name, value in vars(importlib.import_module(
                   f"groundkit.{path.stem}")).items()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == f"groundkit.{path.stem}"}
    others = {name for name, cls in classes.items()
              if not issubclass(cls, Refusal)}
    assert sorted(others - set(NOT_REFUSALS)) == [], "neither kind"
    assert sorted(set(NOT_REFUSALS) - others) == [], "stale entries"


def caught(node: ast.AST) -> list[str]:
    """What each except clause in the code catches, in order; '' for a bare
    except."""
    return [ast.unparse(n.type) if n.type else "" for n in ast.walk(node)
            if isinstance(n, ast.ExceptHandler)]


def test_the_command_line_catches_refusals_only():
    """`main` reports a refusal, a closed stdout and, until the recursions
    leave src/, input nested too deeply; `_load` turns a fault reading a
    file into a refusal naming it.  No clause anywhere in cli.py catches
    what a bug raises."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body
                 if isinstance(n, ast.FunctionDef)}
    assert caught(functions["main"]) == [
        "BrokenPipeError", "Refusal", "RecursionError"]
    assert caught(functions["_load"]) == [
        "FileNotFoundError", "OSError", "Refusal"]
    names = {name for clause in caught(tree)
             for name in re.findall(r"\w+", clause) or [""]}
    assert not names & {"", "ValueError", "Exception", "BaseException"}


@pytest.mark.parametrize("argv", [
    ("classify", "--design", "bomb.dsn", "--behaviour", "one.bhv"),
    ("orth", "bomb.dsn", "skunk.dsn")], ids=lambda argv: argv[0])
def test_a_bug_is_not_reported_as_a_refusal(monkeypatch, argv):
    """A ValueError that the machine raises is a bug: it leaves `main` as
    it was raised, not as an `error:` line blaming the input."""
    def run(*args, **kwargs):
        raise ValueError("a bug in the machine")
    for module in ("interaction", "behaviours", "translate"):
        monkeypatch.setattr(importlib.import_module(f"groundkit.{module}"),
                            "run", run)
    data = ROOT / "demos" / "data"
    with pytest.raises(ValueError, match="a bug in the machine") as e:
        main([str(data / a) if a.endswith((".dsn", ".bhv")) else a
              for a in argv])
    assert not isinstance(e.value, Refusal)
