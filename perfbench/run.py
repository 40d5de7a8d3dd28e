#!/usr/bin/env python3
"""DSE benchmark: builds the benchmark binary from source, runs one workload.

    python3 perfbench/run.py --workload gmm_mixed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the repository's src/) into the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset; later runs reuse it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics below; with --trace 1 they are the per-layer metrics.

    python3 perfbench/run.py --write-benchmark-json

rewrites BENCHMARK.json at the checkout root from the tables in this file.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_SECONDS = 40
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

WORKLOADS = [
    ("gmm_mixed",
     "closed loop of 64 B reads/writes/atomics/locks, threaded runtime, "
     "replication on: the per-request path (client, fabric, wake-ups, GMM "
     "home, replica gate); traced run adds the scheduler probe"),
    ("apps_tcp",
     "Gauss-Seidel and DCT 4x4 on four node processes over loopback TCP: the "
     "paper apps, the only workload on tcp_fabric and osal sockets; traced "
     "run adds the simulator probe"),
]

# name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s_per_unit", "s/unit", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

_LOWER = "lower"
PER_LAYER = [
    ("wall_s", "s", _LOWER),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", _LOWER),
] + [
    (f"client.{call}.{q}_us", "us", _LOWER)
    for call in ("read_local", "read_remote", "bulk_read", "write_local",
                 "write_remote", "bulk_write", "atomic", "lock_pair",
                 "barrier")
    for q in ("p50", "p99")
] + [
    ("op_p90_us", "us", _LOWER),
    ("op_p99_us", "us", _LOWER),
    ("pm.spawn_join.p50_us", "us", _LOWER),
    ("sched.submit.p50_us", "us", _LOWER),
    ("net.msgs_per_op", "1/op", _LOWER),
    ("net.bytes_per_op", "B/op", _LOWER),
    ("wire.msgs_per_op", "1/op", _LOWER),
    ("gmm.repl.forwards_per_write", "1/write", _LOWER),
    ("dsm.home_reads", "1/op", _LOWER),
    ("dsm.home_writes", "1/op", _LOWER),
    ("sync.barrier_waits", "1/op", _LOWER),
    ("sync.lock_waits", "1/op", _LOWER),
    ("rpc.retry", "count", _LOWER),
    ("rpc.timeout", "count", _LOWER),
    ("recovery.epoch_bounces", "count", _LOWER),
    ("proc.cpu_user_s", "s/unit", _LOWER),
    ("proc.cpu_sys_s", "s/unit", _LOWER),
    ("proc.vol_ctx_switches_per_op", "1/op", _LOWER),
    ("sched.start_delay.p50_us", "us", _LOWER),
    ("sched.queue_depth.max", "count", _LOWER),
    ("sched.shed", "count", _LOWER),
    ("sched.busy_frac", "frac", _LOWER),
    ("serving.gen_late.p99_us", "us", _LOWER),
    ("slo_miss_frac", "frac", _LOWER),
    ("sim.wall_us_per_msg", "us/msg", _LOWER),
    ("sim.virtual_s", "virtual_s", _LOWER),
    ("sim.msgs", "count", _LOWER),
    ("simnet.wire_frames", "count", _LOWER),
    ("fabric.hops", "count", _LOWER),
    ("fabric.credit_stalls", "count", _LOWER),
    ("failed_frac", "frac", _LOWER),
    ("trace.overhead_frac", "frac", _LOWER),
    ("trace.spans", "count", "higher"),
]


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dse", "task.h")):
        fail(f"DSE sources not found under {os.path.join(ROOT, 'src')}")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "dse_perfbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for step in steps:
            left = deadline - time.monotonic()
            try:
                code, _ = run_child(step, left, log)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if code != 0:
                fail(f"build failed ({' '.join(step[:2])}); see {log_path}")
    return os.path.join(out, "dse_perfbench")


def run_child(argv, timeout, log=None):
    """Runs argv in its own process group; returns (exit code, stdout).

    Output goes to `log` when given, else it is captured. The whole process
    group is killed on timeout and after the child exits, so no node process
    of a failed run outlives it.
    """
    proc = subprocess.Popen(argv, stdout=log or subprocess.PIPE,
                            stderr=subprocess.STDOUT if log else None,
                            preexec_fn=os.setpgrp, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out or ""


def check_result(line, trace):
    """Validates the binary's JSON line against the metric tables."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark binary printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    want = ({n: u for n, u, _ in PER_LAYER} if trace else
            {n: u for n, u, _, _ in END_TO_END})
    got = result["metrics"]
    if set(got) != set(want):
        fail("metric names differ from the tables in run.py: "
             f"{sorted(set(got) ^ set(want))}")
    for name, metric in got.items():
        if metric.get("unit") != want[name]:
            fail(f"{name}: unit {metric.get('unit')!r}, expected {want[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = build_dir()
    exe = build(out)
    run_dir = os.path.join(out, "perfbench-out")
    os.makedirs(run_dir, exist_ok=True)
    argv = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", run_dir]
    try:
        code, output = run_child(argv, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in output.splitlines() if l.strip()]
    if not lines:
        fail(f"{args.workload} printed nothing (exit code {code})")
    result = check_result(lines[-1], args.trace == 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        fail(f"{args.workload}: correctness check failed (exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
