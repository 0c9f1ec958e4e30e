"""Tests for the end-to-end Cluster benchmark.

Run from the repository root:

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

Every workload runs at --size tiny (the same shapes at a few dozen
operations per node) through run.py, so the tests also cover the build
step.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    """Run one tiny benchmark; returns (exit code, info, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, info, result


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace, metric_spec):
        """Run @p workload and check the result's shape and checks."""
        rc, info, result = run(workload, trace)
        self.assertEqual(rc, 0)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(info["deterministic"])
        self.assertGreaterEqual(info["repetitions"], 2)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in metric_spec})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return info, {k: v["value"] for k, v in result["metrics"].items()}

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, m = self.check(w, 0, SPEC["end_to_end"])
                for name, value in m.items():
                    self.assertGreater(value, 0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_layers(w)

    def check_layers(self, w):
        info, m = self.check(w, 1, SPEC["per_layer"])
        self.assertGreaterEqual(info["traced_repetitions"], 2)
        self.assertGreater(m["sim.events"], 0)
        self.assertGreater(m["net.packets_delivered"], 0)
        self.assertGreater(m["net.host_ns_per_packet"], 0)
        if w == "stencil_coherent":
            self.assertEqual(m["coherence.updates_per_write"], 2)
            self.assertGreater(m["hib.coll_barriers"], 0)
            self.assertGreater(m["hib.atomics"], 0)
        else:
            self.assertEqual(m["coherence.reflected_writes"], 0)
        if w == "fabric_faulty":
            self.assertGreater(m["net.retransmissions"], 0)
            self.assertGreater(m["net.routing_epochs"], 0)


class Violations(unittest.TestCase):
    def test_injected_violation_fails_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, _, result = run(w, 0, "--inject-violation")
                self.assertNotEqual(rc, 0)
                self.assertIs(result["correct"], False)


if __name__ == "__main__":
    unittest.main()
