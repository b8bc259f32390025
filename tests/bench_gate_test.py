#!/usr/bin/env python3
"""Tests for tools/bench_gate.py: the gate's verdicts and exit codes on
fixture reports built against the checked-in baselines.

Usage:
    bench_gate_test.py [BenchGateTest.<case> ...]
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "bench_gate.py"
LADDER_BASELINE = ROOT / "bench" / "BENCH_queue_ladder.baseline.json"
SIMCORE_BASELINE = ROOT / "bench" / "BENCH_simcore.baseline.json"

# Absolute event rates of an unloaded bench_opt_ladder run (4-core
# x86 VM). The ladder report still emits them beside the ratio.
LADDER_RATES = {
    "wheel_events_per_sec": 31.9e6,
    "heap_events_per_sec": 19.7e6,
}

# Absolute reference-queue, event-loop and MMIO round-trip rates of an
# unloaded bench_queue_primitives run (same VM). The simcore report
# still emits them beside their same-run ratios.
SIMCORE_RATES = {
    "ref_events_per_sec": 274e6,
    "events_per_sec": 34.4e6,
    "roundtrip_events_per_sec": 18.2e6,
}


def metrics(path):
    doc = json.loads(path.read_text())
    return {m["name"]: m["value"] for m in doc["metrics"]}


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = pathlib.Path(tmp.name)

    def report(self, values):
        path = self.dir / "fresh.json"
        path.write_text(json.dumps({
            "schema": "wave-bench-v1",
            "bench": "fixture",
            "metrics": [{"name": n, "value": v, "unit": ""}
                        for n, v in values.items()],
        }))
        return path

    def gate(self, *args):
        proc = subprocess.run([sys.executable, str(GATE), *map(str, args)],
                              capture_output=True, text=True)
        return proc.returncode

    def testAbsoluteLadderRatesAreNotGated(self):
        # Machine load slows both queues alike: the rates fall 40% and
        # their same-run ratio holds.
        fresh = metrics(LADDER_BASELINE)
        fresh.update({n: 0.6 * v for n, v in LADDER_RATES.items()})
        self.assertEqual(self.gate(self.report(fresh), LADDER_BASELINE), 0)

    def testLadderRatioDropFails(self):
        fresh = dict(LADDER_RATES)
        fresh["wheel_vs_heap_speedup"] = (
            0.7 * metrics(LADDER_BASELINE)["wheel_vs_heap_speedup"])
        self.assertEqual(self.gate(self.report(fresh), LADDER_BASELINE), 1)

    def testAbsoluteSimcoreRatesAreNotGated(self):
        # Machine load slows the event loop and the round trip alike: the
        # rates fall 40% and their same-run ratio holds.
        fresh = metrics(SIMCORE_BASELINE)
        fresh.update({n: 0.6 * v for n, v in SIMCORE_RATES.items()})
        self.assertEqual(self.gate(self.report(fresh), SIMCORE_BASELINE), 0)

    def testSimcoreRatioDropFails(self):
        # Either rung falling 30% behind the reference queue fails.
        for name in ("event_loop_vs_ref_speedup", "roundtrip_vs_ref_speedup"):
            fresh = metrics(SIMCORE_BASELINE)
            fresh[name] *= 0.7
            self.assertEqual(
                self.gate(self.report(fresh), SIMCORE_BASELINE), 1, name)

    def testRoundTripOverEventLoopIsNotGated(self):
        # The round trip's ratio to the event loop falls whenever the
        # event core gets faster; the report keeps it, the gate ignores it.
        fresh = metrics(SIMCORE_BASELINE)
        fresh["roundtrip_vs_event_loop_speedup"] = 0.1
        self.assertEqual(self.gate(self.report(fresh), SIMCORE_BASELINE), 0)

    def testAllocsOverBudgetFail(self):
        fresh = metrics(SIMCORE_BASELINE)
        fresh["allocs_per_event"] = 0.01
        self.assertEqual(self.gate(self.report(fresh), SIMCORE_BASELINE), 1)

    def testMissingInputExits3(self):
        missing = self.dir / "never_written.json"
        self.assertEqual(self.gate(missing, LADDER_BASELINE), 3)

    def testExtraArgumentExits2(self):
        fresh = self.report(metrics(LADDER_BASELINE))
        self.assertEqual(
            self.gate(fresh, LADDER_BASELINE, LADDER_BASELINE), 2)


if __name__ == "__main__":
    unittest.main()
