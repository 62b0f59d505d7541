"""Every law checker returns a ``Verdict``, ``(verdict, witness text)``.

Read with ``ast`` alone: each top-level function whose name starts with
``check_`` in the modules that own the laws must be annotated ``-> Verdict``,
so no checker can go back to returning bools, a report record or an error
object for its caller to format.  So must ``induced.zeta`` and
``induced.theta``, the checkers of Theorems 4.2 and 4.3, which keep their
names because the benchmark traces them by name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuzzaut"
LAW_MODULES = ("homs.py", "automorphisms.py", "induced.py")
NAMED_CHECKERS = {"induced.py": ("zeta", "theta")}


def checkers(path):
    """(name, return annotation as source) of each top-level ``check_*`` function
    and of the module's named checkers."""
    tree = ast.parse(path.read_text(), filename=str(path))
    named = NAMED_CHECKERS.get(path.name, ())
    return [
        (node.name, ast.unparse(node.returns) if node.returns else None)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (node.name.startswith("check_") or node.name in named)
    ]


@pytest.mark.parametrize("name", LAW_MODULES)
def test_every_checker_returns_a_verdict(name):
    found = checkers(PACKAGE / name)
    assert found, f"{name} defines no check_* function"
    assert set(NAMED_CHECKERS.get(name, ())) <= {fn for fn, _ in found}
    wrong = [(fn, returns) for fn, returns in found if returns != "Verdict"]
    assert not wrong, f"{name}: checkers not annotated -> Verdict: {wrong}"
