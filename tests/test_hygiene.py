"""No module in src/ or tests/ imports a name it never uses.

A stdlib AST scan: an import binding counts as used when its name is read
anywhere in the module, appears in a string annotation, or is re-exported
through `__all__`.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _names_in(expr: ast.AST) -> set:
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def used_names(tree: ast.Module) -> set:
    used = _names_in(tree)
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _names_in(ast.parse(part.value, mode="eval"))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted((line, name) for name, line in imported_names(tree).items()
                    if name not in used)
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\nx = np.pi + tau\n")
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["os", "pi"]
