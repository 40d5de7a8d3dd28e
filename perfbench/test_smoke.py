#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/test_smoke.py

Builds the benchmark if needed (into $CARGO_TARGET_DIR or .bench_build), runs
every workload briefly with tracing off and on, and checks that every metric
named in run.py is printed — in the report table and in the final JSON line
— with its unit. Also checks that BENCHMARK.json matches run.py's tables and
that the command fails without a result when the repository sources are
missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def run_bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, check=False, timeout=900)


class SmokeTest(unittest.TestCase):
    def test_benchmark_json_matches_tables(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), bench.benchmark_json())

    def test_benchmark_json_within_limits(self):
        spec = bench.benchmark_json()
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        workloads = len(spec["workloads"])
        self.assertLessEqual((4 + 22 * workloads) * spec["run_seconds"], 3420)

    def test_every_metric_printed_with_unit(self):
        for workload, _ in bench.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(bench.ROOT, "--workload", workload,
                                     "--seed", "3", "--seconds", "2",
                                     "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    table = (bench.PER_LAYER if trace else
                             [m[:3] for m in bench.END_TO_END])
                    self.assertEqual(set(result["metrics"]),
                                     {name for name, _, _ in table})
                    report = "\n".join(lines[:-1])
                    for name, unit, _ in table:
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        pattern = (r"^\s+" + re.escape(name) + r"\s+\S+\s+" +
                                   re.escape(unit) + r"(\s|$)")
                        self.assertRegex(report, re.compile(pattern, re.M))

    def test_fails_without_sources(self):
        bare = os.path.join(bench.ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gmm_mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
