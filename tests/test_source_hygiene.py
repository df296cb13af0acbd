"""Static checks on the package source: every name a module imports is used,
and no module imports another stepcross module's private (underscore) name.

``__init__.py`` is exempt, since its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stepcross"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every module-level or local import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names referenced anywhere, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in filter(None, annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def private_imports(tree: ast.Module) -> dict[str, int]:
    """Underscore name -> line of every import from another stepcross module
    (dunders such as ``__version__`` are public)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "stepcross"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    out[alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_guard_sees_an_unused_import():
    tree = ast.parse("from typing import Callable, Sequence\nx: Sequence[int] = ()\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Callable"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    private = private_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not private, f"{path.name} imports private names of other modules: {private}"


def test_guard_sees_a_private_import():
    tree = ast.parse("from . import __version__\nfrom os import _exit\n"
                     "from .norms import _block_norms, lp_norm\n"
                     "from stepcross.approx import _cut_error\n")
    assert set(private_imports(tree)) == {"_block_norms", "_cut_error"}
