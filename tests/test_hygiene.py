"""Every name a groundkit module imports is used in that module, and every
top-level function or class it defines is named somewhere else.

No linter is installed, so this walks the syntax trees with `ast`.
"""

import ast
import pathlib
import re

import pytest

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
