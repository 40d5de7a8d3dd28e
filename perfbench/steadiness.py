#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py --runs 10 [--workloads gmm_mixed,serving]

Runs perfbench/run.py once per seed (seeds 1 .. runs) on each workload with
tracing off, for run.py's RUN_SECONDS each, then reports for each metric the
median and the quartile spread (Q3 - Q1) / median, with Q1 and Q3 as
statistics.quantiles(values, n=4) gives them. A spread below a third of
the metric's bound is marked steady. Each run's steal time (the share of
machine CPU time the hypervisor gave to other guests) is kept beside it.
Results are merged into perfbench/steadiness.json (one entry per workload,
replaced when re-run).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "steadiness.json")
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (the metric tables)


def measure(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(bench.RUN_SECONDS),
         "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    steal = [float(l.split()[2].rstrip("%")) for l in lines
             if l.startswith("# steal:")]
    return ({k: v["value"] for k, v in result["metrics"].items()},
            steal[0] if steal else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(n for n, _ in bench.WORKLOADS))
    args = parser.parse_args()

    record = {}
    if os.path.isfile(OUT):
        with open(OUT) as f:
            record = json.load(f)
    bounds = {n: b for n, _, _, b in bench.END_TO_END}
    for workload in args.workloads.split(","):
        runs, steal = [], []
        for seed in range(1, args.runs + 1):
            metrics, steal_pct = measure(workload, seed)
            runs.append(metrics)
            steal.append(steal_pct)
            print(f"{workload} seed {seed}: {metrics} steal {steal_pct}%",
                  flush=True)
        entry = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            entry[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": round(spread, 4), "bound": bound,
                "steady": spread < bound / 3,
                "values": values,
            }
            print(f"  {name:12s} median {median:14.6f}  spread {spread:7.4f}"
                  f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}")
        record[workload] = {"runs": args.runs, "seconds": bench.RUN_SECONDS,
                            "steal_pct": steal, "metrics": entry}
        with open(OUT, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
