#!/usr/bin/env python3
"""Compare a bench run (BENCH_*.json) against its checked-in baseline.

Handles the perf harnesses — micro_sim (BENCH_sim.json), micro_scale
(BENCH_scale.json), and micro_service (BENCH_service.json); the JSON's
top-level "bench" field selects the metric set and the default baseline
path (bench/baselines/<bench>_baseline.json).

Three classes of metric, three policies:

  * Deterministic simulation counters (flow counts, RecomputeFlow calls,
    walk visits, events fired) do not depend on the machine at all — they
    must match the baseline exactly. A mismatch means the simulator's
    behavior changed, not that the runner was slow.
  * Wall-clock metrics (events/sec) vary with hardware — they fail only on a
    regression larger than --max-regression (default 25%) below baseline.
    Faster-than-baseline runs always pass; refresh the baseline with
    --update when an intentional speedup or workload change lands.
  * Tolerance metrics are deterministic in-simulator numbers that shift
    whenever the cost model is retuned (protocol bandwidths): they must stay
    within a two-sided relative tolerance of the baseline — unlike
    wall-clock metrics, faster-than-baseline is also a failure, because any
    drift means the model changed.
  * Capped metrics carry an absolute ceiling independent of any baseline
    (the bench already computed the ratio on one machine, so no cross-run
    normalization is needed). Today: the enabled metrics registry may cost
    at most 10% of disabled event throughput (obs.registry_overhead_frac),
    and the 1024-rank co-run may take at most 3 walk visits per flow.
    Capped ratios are the same policy over a quotient of two wall-clock
    metrics from the current run (host speed cancels): micro_scale bounds
    how much per-event throughput may degrade from 64 to 1024 ranks.

Usage:
  tools/check_perf.py BENCH_sim.json [--baseline PATH]
                      [--max-regression 0.25] [--update]

Exit status 0 on pass, 1 on any failure.
"""

import argparse
import json
import sys

# Per-bench metric sets: (section, key) pairs for the deterministic and
# wall-clock policies, (section, key, ceiling) for caps.
METRICS = {
    "micro_sim": {
        "deterministic": [
            ("rerate", "flows"),
            ("rerate", "recompute_calls"),
            ("rerate", "walk_visits"),
            ("rerate", "flows_recycled"),
            ("throughput", "events"),
            ("sweep", "cells"),
        ],
        "wall_clock": [
            ("throughput", "events_per_sec"),
        ],
        "capped": [
            ("obs", "registry_overhead_frac", 0.10),
        ],
    },
    "micro_scale": {
        "deterministic": [
            (ranks, key)
            for ranks in ("ranks64", "ranks256", "ranks1024")
            for key in ("flows", "events", "co_flows", "recompute_calls",
                        "walk_visits")
        ],
        "wall_clock": [
            ("ranks1024", "events_per_sec"),
        ],
        # Re-checked here so a baseline refresh can't quietly accept a
        # regression past it: at 1024 ranks the aggregated walk must stay
        # at <= 3 binding tests per flow (measured 1.75; a per-flow walk
        # would need one per (resource, flow) incidence, ~38).
        "capped": [
            ("ranks1024", "visits_per_flow", 3.0),
        ],
        # Scale degradation cap: per-event simulator cost is allowed to grow
        # only boundedly from 64 to 1024 ranks (larger heap, bigger bucket
        # tables, colder working set). Ratio of the two wall-clock metrics
        # measured in the same process, so host speed cancels and no
        # baseline normalization is needed. A blowup past the cap means a
        # hot-path structure stopped scaling (e.g. the event heap or the
        # span arena fell out of cache-resident behavior), even if absolute
        # throughput still beats the baseline floor.
        "capped_ratio": [
            ("ranks64", "events_per_sec", "ranks1024", "events_per_sec", 4.0),
        ],
    },
    # The protocol-crossover study runs entirely inside the deterministic
    # simulator: best-protocol labels, kAuto picks, and the crossover point
    # must match the baseline exactly. The bandwidths are deterministic too,
    # but they move whenever the cost model is retuned — the tolerance
    # policy (two-sided, unlike wall_clock's one-sided floor) flags any
    # drift beyond 1% without demanding bit-stable doubles through JSON.
    "ablation_protocols": {
        "deterministic": [
            (case, key)
            for case in ("ring_allgather", "hm_allreduce")
            for size in ("64KB", "256KB", "1MB", "8MB", "64MB", "512MB")
            for key in (f"best_{size}", f"auto_{size}")
        ] + [
            (case, "crossover_to_simple_bytes")
            for case in ("ring_allgather", "hm_allreduce")
        ],
        "wall_clock": [],
        "capped": [],
        "tolerance": [
            (case, f"{proto}_gbps_{size}", 0.01)
            for case in ("ring_allgather", "hm_allreduce")
            for proto in ("simple", "ll", "ll128")
            for size in ("64KB", "512MB")
        ],
    },
    # The scheduling-service load sweep runs entirely under the virtual
    # clock, so every admission/shedding/coalescing count is deterministic
    # and must match the baseline exactly; there are no wall-clock metrics.
    "micro_service": {
        "deterministic": [
            (point, key)
            for point in ("mean_us10000", "mean_us2000", "mean_us500",
                          "mean_us100", "mean_us10")
            for key in ("served", "rejected", "shed", "coalesced",
                        "compiles", "max_depth")
        ] + [
            ("saturation", "served"),
            ("saturation", "dropped"),
        ],
        "wall_clock": [],
        "capped": [],
    },
}


def get(doc, section, key):
    try:
        return doc[section][key]
    except KeyError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="BENCH_*.json from this run")
    parser.add_argument(
        "--baseline", default=None,
        help="baseline path (default bench/baselines/<bench>_baseline.json)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional drop in wall-clock metrics")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run")
    args = parser.parse_args()

    with open(args.current) as f:
        current = json.load(f)

    bench = current.get("bench", "micro_sim")
    if bench not in METRICS:
        print(f"FAIL unknown bench '{bench}' in {args.current}")
        return 1
    metrics = METRICS[bench]
    baseline_path = args.baseline or f"bench/baselines/{bench}_baseline.json"

    if args.update:
        with open(baseline_path, "w") as f:
            json.dump(current, f, indent=2)
            f.write("\n")
        print(f"baseline updated from {args.current} -> {baseline_path}")
        return 0

    with open(baseline_path) as f:
        baseline = json.load(f)

    failures = 0

    for section, key in metrics["deterministic"]:
        want, got = get(baseline, section, key), get(current, section, key)
        if want is None:
            continue  # metric added after this baseline was captured
        if got != want:
            print(f"FAIL {section}.{key}: {got} != baseline {want} "
                  "(deterministic counter changed — simulator behavior "
                  "drifted, or the baseline needs --update)")
            failures += 1
        else:
            print(f"ok   {section}.{key}: {got}")

    for section, key in metrics["wall_clock"]:
        want, got = get(baseline, section, key), get(current, section, key)
        if want is None or got is None:
            continue
        floor = want * (1.0 - args.max_regression)
        if got < floor:
            print(f"FAIL {section}.{key}: {got:.0f} < {floor:.0f} "
                  f"(baseline {want:.0f}, max regression "
                  f"{args.max_regression:.0%})")
            failures += 1
        else:
            ratio = got / want if want else float("inf")
            print(f"ok   {section}.{key}: {got:.0f} "
                  f"(baseline {want:.0f}, floor {floor:.0f}, "
                  f"{ratio:.2f}x of baseline)")

    for section, key, ceiling in metrics["capped"]:
        got = get(current, section, key)
        if got is None:
            continue
        if got > ceiling:
            print(f"FAIL {section}.{key}: {got} > ceiling {ceiling}")
            failures += 1
        else:
            print(f"ok   {section}.{key}: {got} (ceiling {ceiling})")

    for section, key, tol in metrics.get("tolerance", []):
        want, got = get(baseline, section, key), get(current, section, key)
        if want is None or got is None:
            continue
        if abs(got - want) > tol * max(1.0, abs(want)):
            print(f"FAIL {section}.{key}: {got:.4f} vs baseline {want:.4f} "
                  f"(tolerance {tol:.0%})")
            failures += 1
        else:
            print(f"ok   {section}.{key}: {got:.4f} "
                  f"(baseline {want:.4f}, tolerance {tol:.0%})")

    for num_sec, num_key, den_sec, den_key, ceiling in metrics.get(
            "capped_ratio", []):
        num = get(current, num_sec, num_key)
        den = get(current, den_sec, den_key)
        if num is None or den is None or den == 0:
            continue
        ratio = num / den
        label = f"{num_sec}.{num_key} / {den_sec}.{den_key}"
        if ratio > ceiling:
            print(f"FAIL {label}: {ratio:.2f} > ceiling {ceiling}")
            failures += 1
        else:
            print(f"ok   {label}: {ratio:.2f} (ceiling {ceiling})")

    if failures:
        print(f"{failures} perf check(s) failed")
        return 1
    print("all perf checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
