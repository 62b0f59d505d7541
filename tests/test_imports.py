"""Every module of the package uses each name it imports.

Read with ``ast`` alone: a module's imported names are checked against the
names its code loads, so an import left behind by a deletion fails here.
``__init__.py`` imports to re-export, and ``__future__`` imports are
directives, so neither is checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuzzaut"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The name each import statement binds, mapped to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree):
    """Every name the module's code reads, as a bare name or an attribute's root."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_exist():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(imported_names(tree).keys() - used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"
