"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b]

Runs run.py untraced once per (workload, seed) for seeds 1 to 10, one run
at a time, with the settings of BENCHMARK.json, and prints per metric the median over seeds and the
quartile spread (Q3 - Q1) as a share of it, next to the metric's bound.
Raw results go to .perfbench_out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in SEEDS:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            detail, result = (json.loads(ln) for ln in proc.stdout.splitlines()[-2:])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "wall_over_cpu": detail["wall_over_cpu"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        (ROOT / ".perfbench_out" / f"spread-{workload}.json").write_text(json.dumps(runs))
        print(f"{workload}: correct {[r['correct'] for r in runs]}, failed/attempted "
              f"{[(r['failed'], r['attempted']) for r in runs]}, wall/CPU "
              f"{[round(r['wall_over_cpu'], 3) for r in runs]}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[metric]
            flag = "" if spread <= bound / 3 else "  <-- above bound/3"
            if flag:
                status = 1
            print(f"  {metric:48s} median {med:12.6g}  spread {spread:7.2%}  bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
