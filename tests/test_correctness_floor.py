"""A correctness floor: the first seed-1 ops of three benchmark workloads,
scored through perfbench/workloads.py's own input, run and check, must pass
at least as often as they did when the floor was set. perfbench/ is only
read here. A change that raises a pass count raises its floor in the same
change; one that lowers it fails here with the count of each cause."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    # registered before it runs: its dataclasses look their module up by name
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()

# workload: (ops scored, passes at least). spectrum_solve and kummer_points
# score one whole cycle; a two_state_match cycle is only N = 1, 2, 3, so it
# scores eight
FLOORS = {
    WORKLOADS.SpectrumSolve: (WORKLOADS.SpectrumSolve.cycle, 53),
    WORKLOADS.KummerPoints: (WORKLOADS.KummerPoints.cycle, 515),
    WORKLOADS.TwoStateMatch: (8 * WORKLOADS.TwoStateMatch.cycle, 24),
}


def outcomes(workload, ops: int) -> Counter:
    """'pass', or the check's reason or the documented error's type, per op,
    as the benchmark scores them."""
    counts = Counter()
    for j in range(ops):
        inp = workload.input(j)
        try:
            out = workload.run(inp)
        except WORKLOADS.DOMAIN_ERRORS as exc:
            counts[type(exc).__name__] += 1
            continue
        outcome = workload.check(inp, out)
        counts["pass" if outcome.ok else outcome.reason] += 1
    return counts


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("workload", FLOORS, ids=[w.name for w in FLOORS])
def test_the_first_seed_1_ops_meet_their_floor(workload):
    ops, floor = FLOORS[workload]
    counts = outcomes(workload(1), ops)
    assert sum(counts.values()) == ops
    assert counts["pass"] >= floor, f"{workload.name}: {ops} ops, {dict(counts)}"
