#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

    python3 campaign_bench/test_bench.py

Runs every workload at the smallest size (--seconds 1) on a seed other than
the pinned one, untraced and traced, and checks that each run is correct,
prints every metric of BENCHMARK.json with its unit under a well-formed
name, and that the traced mirror's stats equal the untraced run's. Also
checks that a digest other than the pinned one fails the gate.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 99


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


class CampaignBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.binary = run.build()

    def check_result(self, workload, trace, kind):
        code, lines = bench(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertEqual(metric["unit"], expected[name])
            self.assertIsInstance(metric["value"], (int, float))
        return result, lines

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = self.check_result(workload, 0, "end_to_end")
                self.assertGreater(result["metrics"]["checks_per_s"]["value"],
                                   0)
                self.assertTrue(any(line.startswith("env: ")
                                    for line in lines))

    def test_traced_mirror_equals_untraced_run(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                # correct implies campaign_bench found every mirrored shard's
                # stats equal to the untraced shard's.
                self.check_result(workload, 1, "per_layer")

    def test_wrong_digest_fails_the_gate(self):
        pinned = dict(run.PINNED_DIGESTS)
        try:
            run.PINNED_DIGESTS["single"] = "0" * 16
            self.assertFalse(run.gate(self.binary, "single",
                                      run.WORKLOADS["single"]["checks"]))
        finally:
            run.PINNED_DIGESTS.update(pinned)

    def test_spec_names_and_bounds(self):
        names = [m["name"] for kind in ("end_to_end", "per_layer")
                 for m in self.spec[kind]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name) and len(name) <= 64, name)
        for metric in self.spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
