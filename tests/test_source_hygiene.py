"""Static checks on the package source: every name a module imports is used,
no module imports another stepcross module's private (underscore) name,
every function is reached from outside the unit tests, no import or
function definition hides inside a function, only ``poly.py`` reads a polynomial through its dict
views (``.coeffs``, ``.terms()``) instead of its arrays, no module keeps
hidden state in a module-level instance of a package class, and every module
stays below the parser's 4,096-token step.

``__init__.py`` is exempt, since its imports are the package's re-exports.
"""

import ast
import functools
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stepcross"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the code a function may be reached from: the package itself, the scripts,
# the benchmark, and the acceptance suite, but not the unit tests
REACHING = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def defined_functions(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every top-level function and every non-dunder method."""
    out = {}
    for node in tree.body:
        if isinstance(node, FUNCTION_NODES):
            out[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTION_NODES) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    out[item.name] = item.lineno
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name used as a variable (``f``) or as an attribute (``x.f``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def local_imports(tree: ast.Module) -> dict[str, int]:
    """Imported name -> line of every import inside a function body."""
    out = {}
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTION_NODES):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    out.update((alias.name, node.lineno) for alias in node.names)
    return out


@functools.cache
def reached_names() -> frozenset[str]:
    return frozenset().union(*(referenced_names(ast.parse(path.read_text(), filename=str(path)))
                               for path in REACHING))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_function_is_reached(path):
    defined = defined_functions(ast.parse(path.read_text(), filename=str(path)))
    reached = reached_names()
    unreached = {name: line for name, line in defined.items() if name not in reached}
    assert not unreached, f"{path.name} defines functions only tests reach: {unreached}"


def test_guard_sees_an_unreached_function():
    tree = ast.parse("def used(): pass\ndef unused(): pass\n"
                     "class A:\n    def __init__(self): pass\n"
                     "    def kept(self): pass\n    def dropped(self): pass\n"
                     "used()\nA().kept()\n")
    assert set(defined_functions(tree)) - referenced_names(tree) == {"unused", "dropped"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    local = local_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not local, f"{path.name} imports inside functions: {local}"


def test_guard_sees_a_function_local_import():
    tree = ast.parse("import math\n"
                     "def f():\n    from .norms import lp_norm\n    return lp_norm\n"
                     "class A:\n    def g(self):\n        import os\n")
    assert local_imports(tree) == {"lp_norm": 3, "os": 7}


def nested_functions(tree: ast.Module) -> dict[str, int]:
    """``outer.inner`` -> line of every function defined inside another one.

    A nested function escapes ``test_every_function_is_reached``, which sees
    only top-level functions and methods, and the benchmark cannot wrap it.
    """
    out = {}
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTION_NODES):
            for node in ast.walk(fn):
                if node is not fn and isinstance(node, FUNCTION_NODES):
                    out[f"{fn.name}.{node.name}"] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_functions(path):
    nested = nested_functions(ast.parse(path.read_text(), filename=str(path)))
    assert not nested, f"{path.name} defines functions inside functions: {nested}"


def test_guard_sees_a_nested_function():
    tree = ast.parse("def f():\n    g = lambda x: x\n    def rec(n):\n        return n\n"
                     "    return rec\n"
                     "class A:\n    def m(self):\n        async def inner():\n            pass\n")
    assert nested_functions(tree) == {"f.rec": 3, "m.inner": 8}


def dict_view_uses(tree: ast.Module) -> dict[str, int]:
    """``.coeffs`` / ``.terms`` -> line of every attribute access by that name."""
    return {f".{node.attr}": node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "terms")}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_polynomials_read_as_arrays(path):
    uses = dict_view_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name} reads polynomials through dict views, not K and C: {uses}"


def test_guard_sees_a_dict_view():
    tree = ast.parse("coeffs = {}\nx = f.coeffs[(1,)]\nfor k, c in g.terms():\n    pass\n"
                     "y = f.C, f.K\n")
    assert dict_view_uses(tree) == {".coeffs": 2, ".terms": 3}


def package_classes() -> frozenset[str]:
    """Names of the classes defined at the top level of any package module."""
    trees = (ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py"))
    return frozenset(node.name for tree in trees for node in tree.body
                     if isinstance(node, ast.ClassDef))


def module_instances(tree: ast.Module, classes) -> dict[str, int]:
    """Target -> line of every module-level binding whose value calls one of
    ``classes``; functions that build a value, such as ``functools`` caches
    and ``poly._smooth_numbers``, are not classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
            calls = (c.func for c in ast.walk(node.value) if isinstance(c, ast.Call))
            if any(getattr(f, "id", getattr(f, "attr", None)) in classes for f in calls):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update((ast.unparse(t), node.lineno) for t in targets)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_instances(path):
    held = module_instances(ast.parse(path.read_text(), filename=str(path)), package_classes())
    assert not held, f"{path.name} keeps module-level instances of package classes: {held}"


def test_guard_sees_a_module_level_instance():
    tree = ast.parse("import functools\nfrom . import poly\nclass Box:\n    pass\n"
                     "held = Box()\nitems: list = [poly.Box(1)]\nLENS = sorted((2, 1))\n"
                     "cached = functools.lru_cache(maxsize=1)(sorted)\n"
                     "def f():\n    local = Box()\n")
    assert module_instances(tree, {"Box"}) == {"held": 5, "items": 6}


# CPython 3.11's parser keeps a module's tokens in an array that doubles past
# 4,096 entries, which costs every process that compiles the module about
# 0.23 MB of peak memory; the benchmark's workers compile the sources, so
# until it measures peak memory above set-up, "modules are kept under 4,096
# tokens" (ROADMAP item 6).  The parser counts tokenize's tokens other than
# comments and non-logical newlines.
PARSER_TOKEN_STEP = 4096


def parser_tokens(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_stay_below_the_parser_token_step(path):
    count = parser_tokens(path.read_text())
    assert count < PARSER_TOKEN_STEP, (
        f"{path.name} has {count} parser tokens, at or past the {PARSER_TOKEN_STEP} step")


def test_guard_counts_what_the_parser_counts():
    # NAME OP NUMBER NEWLINE ENDMARKER: comments and blank lines add nothing
    assert parser_tokens("x = 1\n") == parser_tokens("# note\n\nx = 1  # one\n\n") == 5
    # INDENT and DEDENT count; the line break inside the brackets does not
    assert parser_tokens("if x:\n    y = (1,\n         2)\n") == 15
