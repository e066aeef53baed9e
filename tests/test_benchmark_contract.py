"""Every package name the benchmark in perfbench/ wraps or imports still
exists: a missing traced entry point would break `--trace 1` without
failing any other test. perfbench/ is only read here."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from heunkummer import cli
from heunkummer.twostate import ClosedForm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    # tracing.py imports only the standard library when loaded
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize("name, target", sorted({**TRACING.SPANNED,
                                                 **TRACING.COUNTED}.items()))
def test_traced_entry_point_exists(name, target):
    home, attr = target
    assert callable(getattr(importlib.import_module(home), attr, None)), name


def test_closed_form_methods_exist():
    for attr in TRACING.CLOSED_FORM_METHODS:
        assert callable(vars(ClosedForm).get(attr)), attr


def test_cli_names_the_child_bootstrap_wraps():
    for name, spec in cli.COMMANDS.items():
        assert "runner" in spec._fields and callable(spec.runner), name
    for attr in ("render_json", "render_csv", "main"):
        assert callable(getattr(cli, attr, None)), attr


def test_names_the_workloads_use_exist():
    """Each `from heunkummer... import name`, and each attribute read off
    such a name or off `hk` (the package), e.g. Family.from_string."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    bound = {"hk": importlib.import_module("heunkummer")}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "heunkummer":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound \
                and not hasattr(bound[node.value.id], node.attr):
            missing.append(f"{node.value.id}.{node.attr}")
    assert missing == []
