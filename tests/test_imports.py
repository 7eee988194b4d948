"""Every module of the package uses each name it imports, and no check in it
is an ``assert``.  That every function it defines is entered by a command or
a benchmark workload is ``test_reachability``'s check.

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
