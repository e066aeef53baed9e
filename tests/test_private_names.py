"""No module of the package reaches into another module's private names:
a leading underscore means "this module only". No library module changes
the process-wide warning filters: only the CLI, which owns its process,
records warnings."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heunkummer"
MODULES = sorted(SRC.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def cross_module_private_uses(tree: ast.Module) -> list[str]:
    """`from m import _x` and `m._x` for every module name m bound by an
    import in tree."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"line {node.lineno}: from "
                                 f"{'.' * node.level}{node.module or ''} "
                                 f"import {alias.name}")
                elif node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_check_sees_both_forms():
    tree = ast.parse("import numpy as np\nfrom . import kummer\n"
                     "from .expansions import _helper, ladder\n"
                     "np._private\nkummer._series\nself._own\nnp.__name__\n")
    assert cross_module_private_uses(tree) == [
        "line 3: from .expansions import _helper",
        "line 4: np._private",
        "line 5: kummer._series",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert cross_module_private_uses(tree) == []


FILTER_CALLS = {"catch_warnings", "simplefilter"}


def warning_filter_uses(tree: ast.Module) -> list[str]:
    """`warnings.catch_warnings`, `warnings.simplefilter` and their
    from-imports in tree."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FILTER_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "warnings"):
            found.append(f"line {node.lineno}: warnings.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
            found += [f"line {node.lineno}: from warnings import {alias.name}"
                      for alias in node.names if alias.name in FILTER_CALLS]
    return found


def test_the_filter_check_sees_both_forms():
    tree = ast.parse("import warnings\nfrom warnings import simplefilter, warn\n"
                     "with warnings.catch_warnings():\n    warnings.warn('x')\n")
    assert warning_filter_uses(tree) == [
        "line 2: from warnings import simplefilter",
        "line 3: warnings.catch_warnings",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_no_library_module_changes_warning_filters(path):
    # catch_warnings swaps process-wide state and is not thread-safe
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert warning_filter_uses(tree) == []
