#!/usr/bin/env python3
"""Quick self-check of the repository benchmark.

Runs every workload once at reduced size (--quick), untraced and traced, and
checks that:
  - every metric BENCHMARK.json names is emitted, with its unit, and nothing
    else; end-to-end values are above zero;
  - no application run failed (runs_failed, reported as "failed", is 0);
  - model_ms and messages on bsp repeat across two runs within the bounds
    BENCHMARK.json sets for them.

Run from the repository root (takes about a minute; the first run builds):

    python3 perfbench/tests/selfcheck.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfCheck(unittest.TestCase):
    def check(self, result, specs):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])

    def test_every_metric_on_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run(w["name"], 0)
                self.check(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                self.check(run(w["name"], 1), SPEC["per_layer"])

    def test_bsp_model_and_messages_repeat(self):
        first, second = run("bsp", 0), run("bsp", 0)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        for name in ("model_ms", "messages"):
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            self.assertLessEqual(abs(a - b), bounds[name] * a,
                                 f"{name}: {a} then {b}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
