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


# One spectrum path: the q-spectrum, the return points and the return
# relation are eigenvalues of termination.recurrence_tridiagonal, built in
# termination.py alone (condition_tridiagonal), never roots of a second,
# monomial representation of the ladder.
SPECTRUM_BUILDERS = {"termination.py"}
ALL_MODULES = sorted(SRC.glob("*.py"))


def spectrum_path_breaches(tree: ast.Module, may_build: bool) -> list[str]:
    """Imports of numpy.polynomial, any name polyroots or ladder_polynomial,
    and, unless may_build, calls of recurrence_tridiagonal, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            imported = []
        if any(name.startswith("numpy.polynomial") for name in imported):
            found.append((node.lineno, "imports numpy.polynomial"))
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("polyroots", "ladder_polynomial"):
            found.append((node.lineno, f"names {name}"))
        if isinstance(node, ast.Call) and not may_build:
            func = node.func
            if (getattr(func, "id", None) or getattr(func, "attr", None)) \
                    == "recurrence_tridiagonal":
                found.append((node.lineno, "calls recurrence_tridiagonal"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_spectrum_check_sees_each_breach():
    tree = ast.parse("from numpy.polynomial import polynomial as npoly\n"
                     "import numpy.polynomial\n"
                     "from numpy import polynomial\n"
                     "npoly.polyroots(c)\n"
                     "ladder_polynomial(steps, slopes, N)\n"
                     "termination.recurrence_tridiagonal(p, N)\n")
    assert spectrum_path_breaches(tree, may_build=False) == [
        "line 1: imports numpy.polynomial", "line 2: imports numpy.polynomial",
        "line 3: imports numpy.polynomial", "line 4: names polyroots",
        "line 5: names ladder_polynomial", "line 6: calls recurrence_tridiagonal"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_one_spectrum_path(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert spectrum_path_breaches(tree, path.name in SPECTRUM_BUILDERS) == []
