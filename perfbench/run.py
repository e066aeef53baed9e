"""heunkummer benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/.
With --trace 0 the run measures the workload untraced for S seconds and
reports the end-to-end metrics. With --trace 1 it runs every input twice
for S seconds, once with spans around every traced entry point (tracing.py)
and once without, in alternating order, and reports the per-layer metrics
and the tracing overhead.

Stdout ends with one JSON line {"correct", "attempted", "failed",
"metrics"}. `failed` counts the ops that crashed: raised an exception
outside the package's documented errors, or returned a result the check
cannot read. An op that ran but missed its check (the known accuracy and
verification defects, or a documented error such as an ill-conditioned
spectrum) is not a failed op: the share of ops that pass their check is the
metric `pass_frac`, and `correct` is false when the share that misses
exceeds the workload's budget. The line before the result holds the
details (failure causes, tail percentile, raw timings, wall-to-CPU ratio,
waste-ratio bases, environment). Spans of a traced run are written to
.perfbench_out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
# Op times are CPU seconds: of the whole process, every thread included,
# for in-process ops, of the child for cli_mix. On a quiet machine they
# equal wall time; on a shared virtual machine they leave out the stalls when the host runs
# something else, which can stretch single calls fivefold. The CPU speed of
# such a machine also drifts, by up to a third between stretches of tens of
# seconds, and the package's code slows in step with a fixed loop of the
# same kind of work. Every time is therefore also scaled by CAL_NOMINAL_S
# over the loop's current CPU time (the median of its last CAL_WINDOW
# samples, CAL_BURST taken every CAL_INTERVAL_S): times are seconds at the
# speed where the loop takes CAL_NOMINAL_S. The details line gives raw wall
# figures, and the ratio of wall to CPU time, which shows blocking or work
# outside the process that CPU time does not see.
CAL_NOMINAL_S = 2.0e-3
CAL_INTERVAL_S = 0.2
CAL_BURST = 3    # samples per calibration point; host stalls hit single ones
CAL_WINDOW = 9   # samples in the median, the last three points
# cli_mix ops are whole processes, whose start-up drifts apart from the
# loop; they are scaled by a reference process instead (see process_loop),
# one sample a second, median of the last three.
PROCESS_CAL_NOMINAL_S = 0.15
PROCESS_CAL_INTERVAL_S = 1.0
# a wall-to-CPU ratio of the ops above this is reported on stderr; at the
# commit that added the benchmark it read at most 1.05 (perfbench/RECORD.md)
WALL_CPU_ALERT = 1.5
CRASH = "crash: "  # failure causes that make an op count as failed


def children_cpu() -> float:
    """CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def calibration_loop() -> float:
    """CPU seconds for a fixed mix of complex scalar arithmetic and small
    numpy array operations, the two kinds of work in the package's hot paths."""
    import numpy as np

    t0 = time.process_time()
    z, term, total = 0.3 + 0.1j, 1 + 0j, 0j
    for k in range(1, 4000):
        term *= z * (1.5 + k) / ((2.5 + k) * k)
        total += term
        if abs(term) < 1e-300:
            term = 1 + 0j
    a = np.zeros(2, dtype=complex)
    step = np.array([1j, -1j])
    for k in range(300):
        a = a + step * (0.5 * k)
    return time.process_time() - t0


def process_loop(env: dict):
    """A calibration loop: CPU seconds of a fresh interpreter that imports
    numpy and exits, the start-up path of every CLI call without the package."""
    cmd = [sys.executable, "-c", "import numpy"]

    def loop() -> float:
        t0 = children_cpu()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        return children_cpu() - t0
    return loop


class Clock:
    """Scale factor from raw seconds to seconds at nominal machine speed."""

    def __init__(self, loop=calibration_loop, nominal=CAL_NOMINAL_S, interval=CAL_INTERVAL_S,
                 burst=CAL_BURST, window=CAL_WINDOW):
        self.loop, self.nominal, self.interval = loop, nominal, interval
        self.burst, self.window = burst, window
        self.samples: list[float] = []
        self._last = -math.inf

    def scale(self) -> float:
        if time.perf_counter() - self._last >= self.interval:
            self.samples += [self.loop() for _ in range(self.burst)]
            self._last = time.perf_counter()
        return self.nominal / statistics.median(self.samples[-self.window:])


def pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it runs on, so the
    calibration loop and every op, child processes included, share a core."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass  # not Linux, or affinity is not ours to set: run unpinned


class Phase:
    """Per-op records of one measured phase; op j had input j."""

    def __init__(self):
        self.times: list[float] = []          # nominal seconds
        self.raw: list[float] = []            # wall seconds
        self.cpu: list[float] = []            # CPU seconds
        self.digits: list = []                # None where no oracle applies
        self.reasons: list = []               # failure cause, None when passed
        self.crashes = 0                      # ops that raised outside the domain
                                              # errors or gave an unreadable result
        self.op_ids: list[int] = []           # op spans (traced phase)
        self.sample = None                    # first passing (input, output)
        self.first_cycle_rss_mb = None
        self.setup: list[tuple] = []          # (nominal, raw) seconds per probe

    @property
    def n(self) -> int:
        return len(self.times)

    def whole_cycles(self, cycle: int) -> int:
        """Op count of the complete cycles, so every stratum of the draw
        weighs the same whatever the machine's speed during the run."""
        return self.n // cycle * cycle or self.n


def measure(wl, seconds: float, clock: Clock, domain_errors, outcome_cls,
            rss_of=resource.RUSAGE_SELF, cpu=time.process_time, probe=None,
            tracer=None, patches=()) -> tuple[Phase, Phase | None]:
    """Closed loop with one caller for `seconds` of wall time; op j gets
    input j.

    Peak RSS is read when the first cycle ends: by then the program has
    met every kind of input, and the records kept from there on are the
    benchmark's, growing with the machine's speed.

    `probe`, if given, times the set-up SETUP_PROBES times, spread evenly
    over the phase between ops, so the probes see the machine as the ops do.

    With a `tracer`, every input runs twice, traced and untraced, in an
    order that alternates from input to input; `patches` from
    tracing.install switch the spans on and off. The traced runs make up
    the first phase returned and the untraced ones the second, so the
    tracer's overhead is read on the same inputs at the same moment."""
    ph = Phase()
    base = Phase() if tracer else None
    op_name = tracer.name_id("op") if tracer else None

    def one_op(rec: Phase, inp, traced: bool) -> None:
        if tracer:
            tracing.switch(patches, traced)
            wl.tracer = tracer if traced else None
        scale = clock.scale()
        sid = tracer.open(op_name) if traced else None
        error = None
        t0, c0 = time.perf_counter(), cpu()
        try:
            out = wl.run(inp)
        except domain_errors as exc:
            error = type(exc).__name__
        except Exception as exc:  # a crash still counts as an attempted op
            error = f"{CRASH}{type(exc).__name__}: {exc}"
            rec.crashes += 1
        t1, c1 = time.perf_counter(), cpu()
        if traced:
            tracer.close(sid, error=error is not None)
            rec.op_ids.append(sid)
            if hasattr(wl, "collect"):
                wl.collect(sid)
        if error:
            outcome = outcome_cls(False, 0.0, error)
        else:
            try:
                outcome = wl.check(inp, out)
            except (ArithmeticError, ValueError, TypeError) as exc:
                outcome = outcome_cls(False, 0.0,
                                      f"{CRASH}unusable result ({type(exc).__name__})")
                rec.crashes += 1
        if outcome.ok and rec.sample is None:
            rec.sample = (inp, out)
        rec.times.append(scale * (c1 - c0))
        rec.raw.append(t1 - t0)
        rec.cpu.append(c1 - c0)
        rec.digits.append(outcome.digits)
        rec.reasons.append(None if outcome.ok else outcome.reason)
        if rec.n == wl.cycle:
            rec.first_cycle_rss_mb = resource.getrusage(rss_of).ru_maxrss / 1024

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if probe and len(ph.setup) < (time.perf_counter() - start) / seconds * SETUP_PROBES:
            scale = clock.scale()
            raw = probe()
            ph.setup.append((scale * raw, raw))
        inp = wl.input(ph.n)
        if tracer is None:
            one_op(ph, inp, traced=False)
        else:
            for traced in ((True, False) if ph.n % 2 else (False, True)):
                one_op(ph if traced else base, inp, traced)
    return ph, base


def wall_over_cpu(ph: Phase) -> float:
    """Wall time over CPU time of a phase's ops, noted on stderr when high."""
    ratio = math.fsum(ph.raw) / math.fsum(ph.cpu)
    if ratio > WALL_CPU_ALERT:
        print(f"perfbench: ops took {ratio:.2f} times as much wall time as CPU time; "
              "the CPU-time figures do not see blocking or work outside the process",
              file=sys.stderr)
    return ratio


def self_check(wl, ph: Phase) -> list[str]:
    """Every generated input lies inside the documented applicability rules,
    and the workload's check rejects a perturbed passing result."""
    problems = []
    for inp in {wl.input(j) for j in range(ph.n)}:
        problems += [f"input {inp!r}: {v}" for v in wl.violations(inp)]
    if ph.sample is None:
        problems.append("no op passed, so the perturbation check cannot run")
    else:
        inp, out = ph.sample
        if wl.check(inp, wl.perturb(out)).ok:
            problems.append("the check accepted a perturbed result")
    return problems


def import_probe(module: str, env: dict):
    """A function returning the CPU seconds `import module` takes inside a
    fresh interpreter. Interpreter start-up itself is left out."""
    code = f"import time; t = time.process_time(); import {module}; " \
           "print(time.process_time() - t)"
    cmd = [sys.executable, "-c", code]

    def probe() -> float:
        return float(subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout)
    return probe


def percentile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    k = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return float(ordered[k]), len(ordered) - k - 1


def crashed(reasons) -> int:
    """Ops whose failure cause is a crash: the `failed` of the result line."""
    return sum(r.startswith(CRASH) for r in reasons if r)


def end_to_end(wl, ph: Phase) -> tuple[dict, dict]:
    """End-to-end metrics over the whole cycles of an untraced phase."""
    n = ph.whole_cycles(wl.cycle)
    times, reasons = ph.times[:n], ph.reasons[:n]
    passed = reasons.count(None)
    tail_s, beyond = percentile(times, wl.tail_pct)
    digits = [d for d in ph.digits[:n] if d is not None]
    metrics = {
        "ops_per_s": passed / math.fsum(times),
        "pass_frac": passed / n,
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_s,
        "err_digits": statistics.fmean(digits),
        "setup_s": statistics.median(p[0] for p in ph.setup),
        "peak_rss_mb": ph.first_cycle_rss_mb,
    }
    causes: dict = {}
    for reason in filter(None, reasons):
        causes[reason] = causes.get(reason, 0) + 1
    detail = {"attempted": n, "failed": crashed(reasons),
              "missed": n - passed, "missed_frac": (n - passed) / n,
              "failure_causes": causes, "ops_after_last_whole_cycle": ph.n - n,
              "op_tail": {"percentile": wl.tail_pct, "samples": n,
                          "samples_beyond": beyond},
              "err_digits_samples": len(digits),
              "setup_probes_s": ph.setup,
              "raw_ops_per_s": passed / math.fsum(ph.raw[:n]),
              "raw_op_p50_ms": 1e3 * statistics.median(ph.raw[:n])}
    return metrics, detail


def environment() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "package": "imported from src/ (not pip-installed)"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "heunkummer" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'heunkummer'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    warnings.simplefilter("ignore")  # accuracy is judged by the checks, not by warnings
    pin_to_current_cpu()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliMix:  # the work happens in child processes
        wl = cls(args.seed, ROOT, env, OUT)
        clock = Clock(process_loop(env), PROCESS_CAL_NOMINAL_S, PROCESS_CAL_INTERVAL_S,
                      burst=1, window=3)
        rss_of, cpu = resource.RUSAGE_CHILDREN, children_cpu
    else:
        wl = cls(args.seed)
        clock, rss_of, cpu = Clock(), resource.RUSAGE_SELF, time.process_time

    def run_phase(**kwargs):
        return measure(wl, args.seconds, clock, workloads.DOMAIN_ERRORS, workloads.Outcome,
                       rss_of, cpu, **kwargs)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace == 0:
        probe = import_probe(wl.entry_module, env)
        probe()  # writes the bytecode cache
        ph, _ = run_phase(probe=probe)
        if ph.first_cycle_rss_mb is None:
            print(f"perfbench: {args.seconds} s did not finish one cycle of "
                  f"{wl.cycle} ops", file=sys.stderr)
            return 5
        metrics, more = end_to_end(wl, ph)
    else:
        tracer = tracing.Tracer()
        ph, untraced = run_phase(tracer=tracer, patches=tracing.install(tracer))
        n = ph.n
        metrics, bases = tracing.layer_metrics(
            tracer, ph.op_ids, getattr(wl, "child_imports", ()),
            scale=math.fsum(ph.times) / math.fsum(ph.raw))
        # untraced / traced ops per second, over the same inputs
        metrics["trace.overhead"] = math.fsum(ph.times) / math.fsum(untraced.times)
        ph.crashes += untraced.crashes
        missed = n - ph.reasons.count(None)
        more = {"attempted": n, "failed": crashed(ph.reasons),
                "missed": missed, "missed_frac": missed / n,
                "waste_ratios": bases, "untraced_wall_over_cpu": wall_over_cpu(untraced)}
        tracer.write(OUT / f"spans-{args.workload}.npz")

    declared = bench["per_layer" if args.trace else "end_to_end"]
    if [m["name"] for m in declared] != list(metrics):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 4
    problems = self_check(wl, ph)
    if problems:
        print("perfbench: self-check failed:\n  " + "\n  ".join(problems[:20]), file=sys.stderr)
        return 3
    detail.update(more, crashes=ph.crashes, failure_budget=wl.failure_budget,
                  wall_over_cpu=wall_over_cpu(ph),
                  calibration={"nominal_s": clock.nominal, "samples": len(clock.samples),
                               "median_s": statistics.median(clock.samples)})
    print(json.dumps(detail))
    print(json.dumps({
        "correct": ph.crashes == 0 and more["missed_frac"] <= wl.failure_budget,
        "attempted": more["attempted"], "failed": more["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
