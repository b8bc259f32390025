#!/usr/bin/env python3
"""Perf gate: compare a wave-bench-v1 report against a baseline.

Usage:
    bench_gate.py <fresh.json> <baseline.json>

Two classes of metric, told apart by name:

* Absolute-budget metrics (``allocs_per_event``): fail if the fresh
  value exceeds the budget, regardless of runner speed. These encode
  correctness-like properties (the W101 "allocation-free steady state"
  claim) that a fast runner cannot hide.
* Throughput metrics (``*_per_sec``) and same-run speedups
  (``*_speedup``, a rate divided by a reference rate timed in the same
  process): higher is better; fail when the fresh value drops more than
  MAX_REGRESSION (25%) below baseline. The margin is deliberately
  generous — CI runners vary — while still catching an accidental O(n)
  in the event loop. A speedup cancels machine load, so a baseline that
  can should list it instead of the absolute rates behind it.

Everything else (latency samples, other ratios, wall_ns_per_sim_sec) is
reported but not gated: those either vary too much across runners or
are gated elsewhere (figure-shape assertions live in the test suite).

Exit codes: 0 pass, 1 gate failure, 2 usage/schema error, 3 missing
input (a BENCH_*.json file that was never produced, or a baseline
metric absent from the fresh report — rebuild the benches with the
`bench_json` target before gating).
"""

import json
import sys

# allocs_per_event must stay ~zero; tolerate counter noise from the
# harness itself (one stray allocation in a million events).
ALLOC_BUDGET = 0.001

# Largest tolerated drop of a *_per_sec or *_speedup metric below its
# baseline.
MAX_REGRESSION = 0.25

# Name suffixes of the higher-is-better metrics gated against
# MAX_REGRESSION.
HIGHER_IS_BETTER = ("_per_sec", "_speedup")


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        print(f"bench_gate: missing input {path} — run the bench_json "
              f"build target to (re)generate BENCH_*.json reports",
              file=sys.stderr)
        sys.exit(3)
    except (OSError, ValueError) as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "wave-bench-v1":
        print(f"bench_gate: {path}: unexpected schema "
              f"{doc.get('schema')!r}", file=sys.stderr)
        sys.exit(2)
    metrics = {}
    for m in doc.get("metrics", []):
        if "name" not in m or "value" not in m:
            print(f"bench_gate: {path}: malformed metric entry {m!r} "
                  f"(need name and value)", file=sys.stderr)
            sys.exit(2)
        try:
            metrics[m["name"]] = float(m["value"])
        except (TypeError, ValueError):
            print(f"bench_gate: {path}: non-numeric value in {m!r}",
                  file=sys.stderr)
            sys.exit(2)
    return metrics


def main(argv):
    args = argv[1:]
    if len(args) != 2 or any(a.startswith("-") for a in args):
        print(__doc__, file=sys.stderr)
        return 2

    fresh, baseline = load(args[0]), load(args[1])
    failures = []
    missing = [n for n in sorted(baseline) if n not in fresh]
    if missing:
        print(f"bench_gate: baseline metrics missing from fresh "
              f"report: {', '.join(missing)}", file=sys.stderr)
        print(f"bench_gate: metric names are stable identifiers — "
              f"rebuild the benches (bench_json target), or update "
              f"{args[1]} if a metric was deliberately renamed",
              file=sys.stderr)
        return 3

    for name, base in sorted(baseline.items()):
        now = fresh[name]
        if name == "allocs_per_event":
            verdict = "FAIL" if now > ALLOC_BUDGET else "ok"
            print(f"  {verdict:4} {name}: {now:g} "
                  f"(budget {ALLOC_BUDGET:g}, absolute)")
            if now > ALLOC_BUDGET:
                failures.append(
                    f"{name}: {now:g} exceeds the {ALLOC_BUDGET:g} "
                    f"budget — a per-event heap allocation is back on "
                    f"the hot path (see docs/static-analysis.md W101)")
        elif name.endswith(HIGHER_IS_BETTER):
            drop = 1.0 - now / base if base > 0 else 0.0
            verdict = "FAIL" if drop > MAX_REGRESSION else "ok"
            print(f"  {verdict:4} {name}: {now:.4g} vs baseline "
                  f"{base:.4g} ({-drop:+.1%})")
            if drop > MAX_REGRESSION:
                failures.append(
                    f"{name}: {now:.4g} is {drop:.1%} below baseline "
                    f"{base:.4g} (limit {MAX_REGRESSION:.0%})")
        else:
            print(f"  info {name}: {now:.4g} vs baseline {base:.4g}")

    if failures:
        print("bench_gate: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("bench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
