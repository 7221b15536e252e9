#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs against BENCHMARK.json.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result JSONs written by `run.py --save DIR`, any number
of runs per workload (ten or more for a claim). For every (metric, workload)
pair it prints both sides' sample count, median and quartiles, and a verdict:

  unchanged   the change's median is no worse than the parent's by more
              than the metric's bound, and both sides' spreads are within it;
  improved    the change wins at least 9 in 10 of the runs paired in order
              and the medians differ by more than the parent's quartile
              distance — or every change run beats every parent run;
  regressed   worse by more than the bound, with spreads within the bound
              or every change run worse than every parent run;
  unresolved  a spread (quartile distance over median) wider than the bound
              leaves the comparison open.

Metrics that read the same on every run of both sides (the simulated ones)
are compared exactly. Only untraced runs count: traced runs carry the
per-layer metrics, which have no bound. Exits 1 if any pair regressed.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(directory):
    """{workload: [metrics dict per untraced run]} in file-name order."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            run = json.load(f)
        if not run["trace"]:
            runs[run["workload"]].append(run["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1

    def wins(a, b):  # b better than a
        return sign * (b - a) > 0

    if len(set(parent)) == 1 and len(set(change)) == 1:
        if parent[0] == change[0]:
            return "unchanged"
        return "improved" if wins(parent[0], change[0]) else "regressed"
    mp, mc = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    won = sum(1 for a, b in pairs if wins(a, b))
    q1, q3 = quartiles(parent)
    if wins(mp, mc) and won >= 0.9 * len(pairs) and abs(mc - mp) > q3 - q1:
        return "improved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    worse_share = -sign * (mc - mp) / abs(mp) if mp else 0.0
    wide = max(spread(parent), spread(change)) > bound
    if worse_share > bound and (not wide or all_worse):
        return "regressed"
    if wide:
        return "improved" if all_better else "unresolved"
    return "unchanged"


def describe(values):
    q1, q3 = quartiles(values)
    return (f"n={len(values):<3d} {statistics.median(values):>12.6g} "
            f"[{q1:.4g}, {q3:.4g}]")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = [w["name"] for w in bench["workloads"]]

    counts = defaultdict(int)
    print(f"{'workload':12s} {'metric':26s} {'parent':>38s} "
          f"{'change':>38s} {'delta':>8s}  verdict")
    for workload in workloads:
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a = [m[name]["value"] for m in parent[workload] if name in m]
            b = [m[name]["value"] for m in change[workload] if name in m]
            if not a or not b:
                v, line = "missing", ""
            else:
                v = verdict(a, b, spec["better"], spec["bound"])
                mp, mc = statistics.median(a), statistics.median(b)
                delta = (mc - mp) / abs(mp) * 100 if mp else 0.0
                line = f"{describe(a):>38s} {describe(b):>38s} {delta:+7.2f}%"
            counts[v] += 1
            print(f"{workload:12s} {name:26s} {line}  {v} "
                  f"(bound {spec['bound']:g}, {spec['better']} is better)")
    print("\n" + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
