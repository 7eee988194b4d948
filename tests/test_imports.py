"""Every module of the package uses each name it imports, every function it
defines is called by another engine module or by the benchmark (a short
allow-list aside), and no check in it is an ``assert``.

The package's ``__init__.py`` imports names only to re-export them, so it is
left out of the import check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hweyl"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == \
        ["os", "tau"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def unreferenced_functions(definers, readers):
    """Functions and methods defined (dunders aside) in the ``definers``
    sources whose name no expression in the ``readers`` sources reads, as a
    variable or as an attribute."""
    defined = {node.name for source in definers for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("__")}
    used = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_unreferenced_functions_are_found():
    source = "def f(): pass\ndef g(): pass\nclass C:\n    def m(self): pass\n" \
             "    def __len__(self): return 0\nf()\n"
    assert unreferenced_functions([source], [source, "C().x.m"]) == ["g"]


#: Functions that only the tests call, each kept for a planned engine user
#: (ROADMAP.md).
ALLOWED_UNREFERENCED = {
    # item 4: the I+ <-> I- duality; the K = 40 CI step runs it
    "swap_transport",
    # item 2a: leaves src/hweyl when 2a retires its perfbench metric
    "cojacobi_residuals",
    # items 2a and 19: only perfbench's own test calls it, and that file
    # changes only in a change to the benchmark
    "coefficients",
}


def test_every_function_is_referenced():
    """Every function the engine defines is called by another engine module
    or by the benchmark client (``perfbench/*.py``); no tests count, those of
    perfbench included.

    The check goes by name: a method that shares its name with one that is
    called (one ``as_tensor`` for another) passes, so such a pair must still
    be checked by hand."""
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [PACKAGE / m for m in MODULES] + sorted((ROOT / "perfbench").glob("*.py"))
    unreferenced = unreferenced_functions(
        sources, [p.read_text(encoding="utf-8") for p in readers])
    assert set(unreferenced) == ALLOWED_UNREFERENCED


def assert_lines(source):
    """Line numbers of the ``assert`` statements in ``source``: ``python -O``
    removes them, so a check written as one can never fail there."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_statements_are_found():
    assert assert_lines("x = 1\nassert x\nif x:\n    assert x, 'msg'\n") == [2, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_assert_statements(module):
    assert assert_lines((PACKAGE / module).read_text(encoding="utf-8")) == []
