"""Every package name the benchmark in perfbench/ wraps or imports still
exists: a missing traced entry point would break `--trace 1` without
failing any other test. perfbench/ is only read here."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from heunkummer import CheParams, Family, build_series, cli, expansions
from heunkummer.twostate import ClosedForm

from conftest import subprocess_env

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


def test_series_evaluation_calls_the_traced_1f1_name(monkeypatch):
    """The tracer counts 1F1 calls by rebinding `eval_1f1` in each package
    module: on a memo miss, a series evaluation with derivatives makes its
    3 per nonzero term through the name bound in `expansions`."""
    calls = []
    real = expansions.eval_1f1

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(expansions, "eval_1f1", counted)
    # q = alpha zeroes a_1, so the nonzero terms are fewer than the indices
    sol = build_series(CheParams(2.3, 0.4, 1.1, 0.7, 0.7), Family.A2_ThreeTerm, 8)
    nonzero = sum(1 for a_n in sol.coefficients if a_n != 0)
    assert nonzero < len(sol.coefficients)
    expansions._basis_ladder.cache_clear()
    expansions.eval_series_with_derivatives(sol, 0.3)
    assert expansions._basis_ladder.cache_info().misses == 3
    assert len(calls) == 3 * nonzero


def test_cli_import_loads_every_traced_home_module():
    """The traced bootstrap imports heunkummer.cli and then reads each home
    module straight from sys.modules, so none of them may load lazily."""
    homes = sorted({home for home, _ in {**TRACING.SPANNED,
                                         **TRACING.COUNTED}.values()})
    probe = ("import sys\nimport heunkummer.cli\n"
             "print(' '.join(m for m in sys.argv[1:] if m not in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe, *homes],
                          capture_output=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == []
