"""Only termination.py decides whether a series is a finite sum. Every
other module asks termination.finite_solution (or q_spectrum for the roots)
and never calls terminated_solution itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heunkummer"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "termination.py")
DECIDERS = {"terminated_solution"}


def decider_calls(tree: ast.Module) -> list[str]:
    """Calls of a decider by its bare name or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in DECIDERS:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_the_check_sees_both_call_forms():
    tree = ast.parse("from .termination import terminated_solution\n"
                     "terminated_solution(p, family, cond)\n"
                     "termination.terminated_solution(p, family, cond)\n"
                     "finite_solution(p, family)\n")
    assert decider_calls(tree) == ["line 2: terminated_solution",
                                   "line 3: terminated_solution"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_termination_decides_a_finite_sum(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert decider_calls(tree) == []
