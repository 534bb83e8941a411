#!/usr/bin/env python3
"""Schema test: every workload and metric named in BENCHMARK.json is
emitted by the driver, with the declared unit, and nothing else is.

Run from the repository root (builds the benchmark on first use; takes a
couple of minutes because each workload's outcome horizon always runs):

    python3 perfbench/tests/test_schema.py
"""

import json
import math
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = list(SPEC["command"]) + ["--workload", workload, "--seed", "3",
                                   "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


class Schema(unittest.TestCase):
    def check(self, trace, declared):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                code, result, proc = run(workload, trace)
                self.assertEqual(code, 0, proc.stderr[-2000:])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {m["name"] for m in declared})
                for m in declared:
                    got = metrics[m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertTrue(math.isfinite(got["value"]), m["name"])
                    if trace == 0:
                        self.assertNotEqual(got["value"], 0, m["name"])

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])

    def test_refuses_unknown_workload(self):
        code, result, _ = run("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    sys.exit(unittest.main())
