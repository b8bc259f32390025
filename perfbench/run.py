#!/usr/bin/env python3
"""Repository benchmark for the Wave simulator.

Builds the benchmark binary (perfbench/src, linked against the simulator in src/)
into .bench_build/perfbench, runs one workload, checks every simulated
point against the fingerprints recorded in perfbench/expected.json, and
prints a readable table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload fifo_wave_sweep --seed 42 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload, both modes

--trace 0 reports the end-to-end metrics of BENCHMARK.json (host cost
and simulated answers, no instrumentation); --trace 1 reports its
per-layer metrics from the traced rebuild (see perfbench/README.md).
"""

import argparse
import json
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "wave_perfbench"
EXPECTED = HERE / "expected.json"

# A run is allowed 180 s; leave room for start-up and the report.
BINARY_TIMEOUT_S = 170

# The reference rung's time on the machine the benchmark was written on
# (4-vCPU Xeon VM, unloaded): setup_s is the set-up time in reference
# rungs, scaled by this to read as seconds on that machine.
REFERENCE_RUNG_S = 0.0245


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then brings the benchmark binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "wave_perfbench", "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=BINARY_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"benchmark binary failed (exit {proc.returncode}): "
                         + " ".join(cmd))
    return json.loads(lines[-1])


def expected_for(workload, seed):
    with open(EXPECTED) as f:
        return json.load(f)["workloads"].get(workload, {}).get(str(seed))


# The simulated outputs a point must reproduce exactly.
POINT_KEYS = ("fingerprint", "completed", "get_p50_ns", "get_p99_ns")


def point_record(p):
    return {k: p[k] for k in ("offered_rps",) + POINT_KEYS}


def first_per_rate(points):
    """The first point run at each offered rate, in ladder order."""
    seen = OrderedDict()
    for p in points:
        seen.setdefault(p["offered_rps"], p)
    return list(seen.values())


def count_mismatches(points, reference):
    """Points whose simulated outputs differ from the reference point at
    the same offered rate (a rate missing from the reference fails)."""
    by_rate = {p["offered_rps"]: p for p in reference}
    failed = 0
    for p in points:
        ref = by_rate.get(p["offered_rps"])
        if ref is None or any(p[k] != ref[k] for k in POINT_KEYS):
            failed += 1
    return failed


def ladder_saturation(points):
    """FindSaturationThroughput's rule over one ladder pass."""
    ok = [p["achieved_rps"] for p in points
          if p["achieved_rps"] >= 0.97 * p["offered_rps"]]
    return max(ok) if ok else 0.0


def check_points(workload, seed, raw):
    """Returns (attempted, failed) for the points a run made.

    With a recording for this seed every point must match it. Without
    one, every repetition must match the run's own first pass. Every
    FindSaturationThroughput answer must equal the recorded one and the
    one its ladder's points give.
    """
    points = raw["points"]
    ladder = first_per_rate(points)
    expected = expected_for(workload, seed)
    reference = expected["points"] if expected else ladder
    if not expected:
        log(f"note: no recorded fingerprints for {workload} seed {seed}; "
            "checking that repetitions reproduce the first pass")
    attempted = len(points)
    failed = count_mismatches(points, reference)
    if expected and len(ladder) != len(reference):
        failed += 1  # the ladder stopped at a different point
    for sat in raw["saturation_rps"]:
        attempted += 1
        if sat != ladder_saturation(ladder) or (
                expected and sat != expected["saturation_rps"]):
            failed += 1
    return attempted, failed


def ratio_of_fastest(wall_s, ref_s):
    """The fastest timed call over the fastest reference rung. Other
    tenants' load only ever slows a call, in bursts that a 25 ms rung
    and a 1 s call do not see alike, so per-call ratios scatter; the
    two minima are each close to the unloaded time."""
    return min(wall_s) / min(ref_s)


def e2e_metrics(raw):
    ladder = first_per_rate(raw["points"])
    # The sweep's answer is its saturation; its latencies are read at the
    # ladder's first (fixed) rate, below the knee.
    if raw["saturation_rps"]:
        achieved = raw["saturation_rps"][0]
    else:
        achieved = ladder[0]["achieved_rps"]
    at = ladder[0]
    return {
        "wall_vs_ref": (ratio_of_fastest(raw["pass_wall_s"],
                                         raw["pass_ref_s"]), "x"),
        "setup_s": (REFERENCE_RUNG_S * ratio_of_fastest(
            raw["setup_wall_s"], raw["setup_ref_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "sim_achieved_krps": (achieved / 1e3, "krps"),
        "sim_get_p50_us": (at["get_p50_ns"] / 1e3, "sim_us"),
        "sim_get_p99_us": (at["get_p99_ns"] / 1e3, "sim_us"),
    }


def evaluate(workload, seed, raw, trace):
    if trace == 0:
        attempted, failed = check_points(workload, seed, raw)
        metrics = e2e_metrics(raw)
    else:
        expected = expected_for(workload, seed)
        attempted = raw["attempted"]
        failed = raw["mismatches"]
        if expected:
            failed += count_mismatches(raw["points"], expected["points"])
        if raw["violations"]:
            log(f"checker reported {raw['violations']} violation(s)")
            failed = max(failed, 1)
        metrics = {k: (v["value"], v["unit"])
                   for k, v in raw["metrics"].items()}
    failed = min(failed, attempted)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def check_names(metrics, trace):
    """The binary must report exactly the metrics BENCHMARK.json lists."""
    listed = {m["name"]: m["unit"]
              for m in spec()["per_layer" if trace else "end_to_end"]}
    got = {k: unit for k, (_, unit) in metrics.items()}
    if got != listed:
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"extra {sorted(set(got) - set(listed))}, "
                         f"missing {sorted(set(listed) - set(got))}, "
                         f"unit changes "
                         f"{sorted(k for k in got if k in listed and got[k] != listed[k])}")


def print_table(title, result):
    print(f"== {title}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:28s} {value:>18.6g} {unit}")
    if "host_wall_s" in result:
        print(f"  {'(host wall, not gated)':28s} "
              f"{result.pop('host_wall_s'):>18.6g} s")


def run_one(workload, seed, seconds, trace):
    raw = run_binary(workload, seed, seconds, trace)
    result = evaluate(workload, seed, raw, trace)
    check_names(result["metrics"], trace)
    if trace == 0:
        # Host seconds of the fastest pass: not gated, other tenants'
        # load moves it by tens of percent.
        result["host_wall_s"] = min(raw["pass_wall_s"])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload in both modes and print "
                         "every metric (no result line)")
    args = ap.parse_args()
    try:
        names = [w["name"] for w in spec()["workloads"]]
        seconds = args.seconds or spec()["run_seconds"]
        build()
        if args.all:
            for workload in names:
                for trace in (0, 1):
                    print_table(f"{workload} trace={trace}",
                                run_one(workload, args.seed, seconds, trace))
            return 0
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {names}")
        result = run_one(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                result)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
