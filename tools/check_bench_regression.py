#!/usr/bin/env python3
"""Perf-regression gate over BENCH_stream.json stage breakdowns.

Compares a freshly measured BENCH_stream.json against the checked-in
baseline and fails (exit 1) when any gated stage regresses by more
than the tolerance.  Gated stages are the hot per-unit costs the
pipeline's design promises to hold:

    route_ns_per_subupdate       shard-worker routing cost
    drain_ns_per_event           store-drain cost
    query_ns_per_event           live event-store query cost
    checkpoint_ns_per_event      per-update cost of one checkpoint cut
    recover_ms                   recover-on-start wall clock
    fabric_append_ns_per_event   loopback distributed-append cost
    rebalance_ms                 one live slot migration, wall clock
    detection_latency_p99_ms     p99 ingest->event-close latency,
                                 end-to-end through the fabric

The recovery stages are fsync-bound and the fabric stages add loopback
TCP + a second process tree on top, so they are gated at 3x the base
tolerance (see TOLERANCE_SCALE) — wide enough to absorb shared runner
I/O and scheduler jitter while still catching an order-of-magnitude
serialization or replay regression.  Other stages (sink dispatch,
spill, reopen) are I/O- and scheduler-bound with no promise worth
gating; they are printed for the record but never fail the build.

The fabric stages exist in BENCH_stream.json only when perf_stream ran
with --fabric; CI always passes the flag, so a missing fabric stage in
a fresh measurement is itself a regression and fails the gate.

Usage:
    tools/check_bench_regression.py BASELINE.json FRESH.json

Tolerance defaults to 25% and can be overridden with the
BGPBH_BENCH_TOLERANCE environment variable (e.g. "0.40" for 40%).
Stdlib only; no dependencies.
"""

import json
import os
import sys

GATED_STAGES = (
    "route_ns_per_subupdate",
    "drain_ns_per_event",
    "query_ns_per_event",
    "checkpoint_ns_per_event",
    "recover_ms",
    "fabric_append_ns_per_event",
    "rebalance_ms",
    "detection_latency_p99_ms",
)

# Per-stage multiplier on the base tolerance for stages whose cost is
# dominated by fsync/disk/loopback-TCP rather than CPU.
TOLERANCE_SCALE = {
    "checkpoint_ns_per_event": 3.0,
    "recover_ms": 3.0,
    "fabric_append_ns_per_event": 3.0,
    "rebalance_ms": 3.0,
    # Wall-clock e2e latency: dominated by batch/drain cadence and
    # scheduler timing, not CPU — same 3x headroom as the other
    # wall-clock stages.  Unit-aware via stage_unit() (_ms suffix).
    "detection_latency_p99_ms": 3.0,
}

DEFAULT_TOLERANCE = 0.25


def stage_unit(name):
    return "ms" if name.endswith("_ms") else "ns"


def load_stages(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    stages = doc.get("stage_breakdown")
    if not isinstance(stages, dict):
        raise SystemExit(f"{path}: no stage_breakdown object")
    return stages


def stage_value(stages, name, path):
    v = stages.get(name)
    # Histogram-shaped entries carry the per-unit cost as "mean".
    if isinstance(v, dict):
        v = v.get("mean")
    if not isinstance(v, (int, float)) or v <= 0:
        raise SystemExit(f"{path}: stage {name!r} missing or non-positive: {v!r}")
    return float(v)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, fresh_path = argv[1], argv[2]
    tolerance = float(os.environ.get("BGPBH_BENCH_TOLERANCE", DEFAULT_TOLERANCE))

    baseline = load_stages(baseline_path)
    fresh = load_stages(fresh_path)

    failures = []
    print(f"bench regression gate: tolerance {tolerance:.0%}")
    print(f"  baseline: {baseline_path}")
    print(f"  fresh:    {fresh_path}")
    for name in GATED_STAGES:
        base = stage_value(baseline, name, baseline_path)
        cur = stage_value(fresh, name, fresh_path)
        ratio = cur / base
        stage_tolerance = tolerance * TOLERANCE_SCALE.get(name, 1.0)
        verdict = "ok"
        if ratio > 1.0 + stage_tolerance:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"  {name:28s} {base:10.2f} -> {cur:10.2f} {stage_unit(name)}  "
              f"({ratio - 1.0:+.1%}, allowed +{stage_tolerance:.0%})  "
              f"[{verdict}]")

    # Ungated stages: report only.
    for name in sorted(set(baseline) & set(fresh) - set(GATED_STAGES)):
        try:
            base = stage_value(baseline, name, baseline_path)
            cur = stage_value(fresh, name, fresh_path)
        except SystemExit:
            continue
        print(f"  {name:28s} {base:10.2f} -> {cur:10.2f} {stage_unit(name)}  "
              f"({cur / base - 1.0:+.1%})  [info]")

    if failures:
        print(f"FAIL: {len(failures)} stage(s) regressed beyond "
              f"{tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
