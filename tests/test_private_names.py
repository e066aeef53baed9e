"""No module of the package reaches into another module's private names:
a leading underscore means "this module only". No library module changes
the process-wide warning filters: only the CLI, which owns its process,
records warnings. One function, kummer.eval_1f1, issues the
LargeArgumentWarning, and one loop, kummer._sum_scalar, sums every scalar
1F1 series. eval_1f1 is also the one door into both 1F1 kernels: no other
function names _sum_scalar or _sum_array, so no caller skips its checks."""

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


def large_argument_warn_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, enclosing function) of each `warnings.warn` or `warn` call in
    tree that names LargeArgumentWarning, bare or as an attribute, in its
    arguments; "<module>" outside any function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                    (isinstance(child.func, ast.Attribute) and child.func.attr == "warn"
                     and isinstance(child.func.value, ast.Name)
                     and child.func.value.id == "warnings")
                    or (isinstance(child.func, ast.Name) and child.func.id == "warn")):
                arguments = child.args + [kw.value for kw in child.keywords]
                if any(getattr(n, "id", getattr(n, "attr", None)) == "LargeArgumentWarning"
                       for arg in arguments for n in ast.walk(arg)):
                    found.append((child.lineno, function))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(tree, "<module>")
    return found


def test_the_warning_site_check_sees_both_forms():
    tree = ast.parse("import warnings\nfrom warnings import warn\n"
                     "def f():\n    warnings.warn('x', LargeArgumentWarning)\n"
                     "def g():\n    def h():\n"
                     "        warn('y', category=LargeArgumentWarning)\n"
                     "warnings.warn('z', UserWarning, stacklevel=2)\n"
                     "warnings.warn('w', errors.LargeArgumentWarning)\n")
    assert large_argument_warn_sites(tree) == [(4, "f"), (7, "h"), (9, "<module>")]


def test_eval_1f1_is_the_one_large_argument_warning_site():
    # a second site, or an eval_1f1 that hands its sum to an unwarned copy,
    # would let a caller sum 1F1 beyond LARGE_X without the warning
    sites = [(path.name, function) for path in MODULES
             for _, function in large_argument_warn_sites(
                 ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert sites == [("kummer.py", "eval_1f1")]


def enclosing_functions(tree: ast.Module, matches) -> list[str]:
    """The enclosing function of each node of tree that matches; "<module>"
    outside any function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(function)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(tree, "<module>")
    return found


def term_update_sites(tree: ast.Module) -> list[str]:
    """The enclosing function of each `term *= ...` in tree."""
    return enclosing_functions(tree, lambda node: (
        isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
        and isinstance(node.target, ast.Name) and node.target.id == "term"))


def test_the_term_update_check_sees_nested_loops():
    tree = ast.parse("def f():\n    for k in r:\n        term *= k\n"
                     "def g():\n    term += 1\n    if x:\n        term *= 2\n")
    assert term_update_sites(tree) == ["f", "g"]


def test_every_scalar_1f1_sum_runs_through_one_loop():
    # a per-sum error estimate added to one loop must not miss a copy of it:
    # 1F1 and its term-wise derivative share the scalar loop, and the array
    # pass runs its polynomial and its series through one step
    path = SRC / "kummer.py"
    sites = term_update_sites(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert sites == ["_sum_scalar", "_sum_array"]


KERNELS = {"_sum_scalar", "_sum_array"}


def kernel_references(tree: ast.Module) -> list[str]:
    """The enclosing function of each name or attribute in tree that reads
    a 1F1 kernel: a call, or the kernel passed on as a value."""
    return enclosing_functions(tree, lambda node: (
        (isinstance(node, ast.Name) and node.id in KERNELS)
        or (isinstance(node, ast.Attribute) and node.attr in KERNELS)))


def test_the_kernel_check_sees_both_forms():
    tree = ast.parse("def eval_1f1():\n    return _sum_array(x)\n"
                     "def f():\n    g = kummer._sum_scalar\n    _sum_scalar(1)\n"
                     "def _sum_scalar():\n    pass\n")
    assert kernel_references(tree) == ["eval_1f1", "f", "f"]


def test_eval_1f1_is_the_one_door_into_the_kernels():
    # a second door would let a caller skip eval_1f1's checks, pole rule,
    # degree cap or warning, and a per-sum change would have two callers
    sites = [(path.name, function) for path in MODULES
             for function in kernel_references(
                 ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert sites == [("kummer.py", "eval_1f1")] * 2
