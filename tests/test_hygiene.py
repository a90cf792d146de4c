"""No module in src/ or tests/ imports a name it never uses, no private
top-level function or class in src/ goes unread, src/ grows no default
outside an explicit allow-list, and src/ trims a live block in one place.

Stdlib AST scans.  An import binding counts as used when its name is read
anywhere in the module, appears in a string annotation, or is re-exported
through `__all__`.  A private definition counts as read when a src/ module
loads its name, reads it as an attribute or imports it, outside the
definition's own body.  Every defaulted parameter and dataclass field
default is a setting a caller can change, so a new one shows up here as an
edit to the allow-list.
"""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))


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


def names_read(tree: ast.AST) -> set:
    """Names a subtree loads, reads as attributes or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unread_private_definitions(modules: dict) -> list:
    """(module, line, name) of each private top-level def no module reads."""
    # how many top-level statements, over all modules, read each name
    readers = Counter(name for tree in modules.values() for stmt in tree.body
                      for name in names_read(stmt))
    return [(module, stmt.lineno, stmt.name)
            for module, tree in modules.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and readers[stmt.name] == (stmt.name in names_read(stmt))]


def test_every_private_definition_is_read():
    modules = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8"))
               for p in SOURCES}
    assert unread_private_definitions(modules) == []


def test_the_scan_sees_an_unread_private_definition():
    modules = {
        "a": ast.parse("def _used():\n    pass\n\ndef _self_only(n):\n    return _self_only(n)\n"
                       "\nclass _Unread:\n    pass\n"),
        "b": ast.parse("from a import _used\n_used()\n"),
    }
    assert unread_private_definitions(modules) == [("a", 4, "_self_only"), ("a", 7, "_Unread")]


def defaults(module: str, tree: ast.Module) -> tuple[list, list]:
    """module.function(param) of each defaulted parameter, and
    module.Class.field of each dataclass field with a default."""
    params, fields = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):] + [
                arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            params += [f"{module}.{node.name}({arg.arg})" for arg in named]
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in names_read(d) for d in node.decorator_list):
            fields += [f"{module}.{node.name}.{stmt.target.id}" for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign) and stmt.value is not None]
    return params, fields


ALLOWED_PARAMETERS = [
    "analysis.classicality_check(epsilon)", "analysis.classicality_check(work_dim)",
    "analysis.nonclassicality_score(epsilon)", "analysis.nonclassicality_score(work_dim)",
    "analysis.nonclassicality_profile(epsilons)", "analysis.nonclassicality_profile(work_dim)",
    "analysis.default_battery(dim)", "analysis.default_battery(seed)",
    "analysis.verify_suite(config)",
    "channels.amplifier_apply(dim_out)",
    "channels.amplifier_dilated(anc_dim)",
    "channels.coherent_projection(route)",
    "channels.inverse_apply(epsilon)",
    "cli.main(argv)",
    "fock.random_density(support)", "fock.random_density(rng)",
]
ALLOWED_FIELDS = [
    "analysis.CheckResult.note",
    "analysis.VerifyConfig.dim", "analysis.VerifyConfig.grid_extent",
    "analysis.VerifyConfig.grid_step", "analysis.VerifyConfig.seed",
    "analysis.VerifyConfig.tolerances", "analysis.VerifyConfig.only",
    "channels.Inverse.epsilon",
    "fock.TruncatedOperator.label", "fock.DensityOperator.trace_tolerance",
    "phasespace.PhaseGrid.center", "phasespace.PhaseGrid.half_extent",
    "phasespace.PhaseGrid.spacing",
    "phasespace.QuasiDistribution.source_label",
    "phasespace.GaussianP.weight",
]


def test_every_default_is_allowed():
    params, fields = [], []
    for path in SOURCES:
        found = defaults(path.stem, ast.parse(path.read_text(encoding="utf-8")))
        params += found[0]
        fields += found[1]
    assert sorted(params) == sorted(ALLOWED_PARAMETERS)
    assert sorted(fields) == sorted(ALLOWED_FIELDS)


def test_the_scan_sees_every_default():
    tree = ast.parse("from dataclasses import dataclass, field\n"
                     "def f(a, b=1, *, c, d=2):\n    pass\n"
                     "def g(a, /, b=3):\n    pass\n"
                     "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
                     "    z: list = field(default_factory=list)\n"
                     "class B:\n    w: int = 1\n")
    assert defaults("m", tree) == (["m.f(b)", "m.f(d)", "m.g(b)"], ["m.A.y", "m.A.z"])


def trim_calls(module: str, tree: ast.Module) -> list:
    """module.function of each top-level definition that calls trim_dim."""
    return [f"{module}.{stmt.name}" for stmt in tree.body
            for node in ast.walk(stmt) if isinstance(node, ast.Call)
            and "trim_dim" in names_read(node.func)]


def test_one_live_block_rule():
    # every truncation goes through fock._live and its one threshold, so a
    # hand-written trim anywhere else in src/ fails here
    calls = []
    for path in SOURCES:
        calls += trim_calls(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert calls == ["fock._live"]


def test_the_scan_sees_every_trim():
    tree = ast.parse("def f(x):\n    return trim_dim(x, 1e-14)\n"
                     "def g(x):\n    return fock.trim_dim(x, 1e-16) + trim_dim(x, 0.0)\n"
                     "def h(x):\n    return x.trim_dim\n")
    assert trim_calls("m", tree) == ["m.f", "m.g", "m.g"]
