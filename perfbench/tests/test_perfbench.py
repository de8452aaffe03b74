#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs a tiny-shape pass of every workload, untraced and traced, through
perfbench/run.py and asserts that the result line is well formed, that
every metric BENCHMARK.json names is present with its unit, and that
the outputs passed their checks. Then feeds the serving check a
deliberately wrong reference ranking and asserts that the run fails.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["serve_scan", "serve_light", "train_lgn"]


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "3", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


class PerfbenchSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, workload, trace):
        code, result, log = run(workload, trace)
        self.assertEqual(code, 0, log[-3000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if not trace:
            for m in self.spec["end_to_end"]:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   workload + " " + m["name"])

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 1)
                spans = os.path.join(ROOT, ".bench_build", "trace",
                                     workload + "-seed7.jsonl")
                with open(spans) as f:
                    first = json.loads(f.readline())
                self.assertEqual(set(first),
                                 {"name", "start_ns", "end_ns", "id", "parent", "req"})

    def test_wrong_reference_trips_the_check(self):
        code, result, log = run("serve_light", 0, "--corrupt-reference")
        self.assertNotEqual(code, 0, log[-3000:])
        self.assertIs(result["correct"], False)
        self.assertIn("differ", log)


if __name__ == "__main__":
    unittest.main()
