#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the simulator).

Checks that the benchmark binary's workload and metric names match
BENCHMARK.json, that the seed reaches only the generated inputs, that
two back-to-back runs give identical simulated outputs, and that the
recorded fingerprints cover every workload at the default and held-out
seeds.

Usage: python3 perfbench/selftest.py    (about one minute)
"""

import json
import subprocess
import sys
import unittest

import run

SHORT_S = 1  # the binary still makes its minimum number of passes


def sim_metrics(result):
    return {k: v for k, v in result["metrics"].items() if k.startswith("sim_")}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.spec()
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_names_match_benchmark_json(self):
        # run_one raises if the reported metrics (names and units) differ
        # from the spec's list for that mode.
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run_one(workload, 42, SHORT_S, trace)
                    self.assertTrue(result["correct"])

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run(
            [str(run.BINARY), "--workload", "no_such_workload", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_seed_reaches_only_the_generated_inputs(self):
        a = run.run_binary("fifo_onhost_point", 3, SHORT_S, 0)
        b = run.run_binary("fifo_onhost_point", 4, SHORT_S, 0)
        self.assertEqual(a["config"].pop("seed"), 3)
        self.assertEqual(b["config"].pop("seed"), 4)
        self.assertEqual(a["config"], b["config"])
        self.assertNotEqual(a["points"][0]["fingerprint"],
                            b["points"][0]["fingerprint"])

    def test_back_to_back_runs_agree(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first = run.run_one(workload, 5, SHORT_S, 0)
                second = run.run_one(workload, 5, SHORT_S, 0)
                self.assertEqual(sim_metrics(first), sim_metrics(second))

    def test_recordings_cover_default_and_held_out_seeds(self):
        with open(run.EXPECTED) as f:
            recorded = json.load(f)["workloads"]
        for workload in self.workloads:
            for seed in ("42", "1729"):
                self.assertIn(seed, recorded[workload])


if __name__ == "__main__":
    sys.exit(unittest.main(verbosity=2))
