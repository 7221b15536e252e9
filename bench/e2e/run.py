#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e/README.md).

One workload, the form BENCHMARK.json's command takes:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload in turn (what run.sh does):

    python3 bench/e2e/run.py [--seed N] [--trace]

Builds bench/e2e with CMake into build-e2e/ at the repository root (a no-op
when up to date; the first build compiles the library, about a minute on
four cores), runs e2e_layers, and prints every metric it measured by name
with its unit. The metrics BENCHMARK.json lists for the mode — end_to_end
untraced, per_layer traced — are checked to be present. With --workload the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without a result line if the build fails, and non-zero after
it if a correctness check fails or a listed metric is missing.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "e2e_layers"
# A run is time-bounded by --seconds; this only catches a hung binary.
RUN_TIMEOUT_S = 170


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_workload(bench, workload, seed, seconds, trace, save_dir):
    """Runs one workload, prints its metrics, returns its result line."""
    out = BUILD / f"BENCH_e2e_{workload}.json"
    out.unlink(missing_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={out}"]
    if trace:
        cmd.append("--trace")
    sys.stdout.flush()
    proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    if not out.exists():
        raise RuntimeError(f"{workload}: e2e_layers exited {proc.returncode} "
                           "without a result")
    with open(out) as f:
        measured = json.load(f)
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        shutil.copy(out, save_dir / f"{workload}-seed{seed}-trace{int(trace)}"
                                    f"-{stamp}-{time.time_ns() % 10**6}.json")

    problems = []
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in listed:
        name = spec["name"]
        got = measured["metrics"].get(name)
        if got is None or got["value"] is None or \
                not math.isfinite(got["value"]):
            problems.append(f"metric {name} missing or not finite")
            continue
        if got["unit"] != spec["unit"]:
            problems.append(f"metric {name} in {got['unit']}, "
                            f"BENCHMARK.json says {spec['unit']}")
        if not trace and got["value"] == 0:
            problems.append(f"end-to-end metric {name} reads 0")
        metrics[name] = {"value": got["value"], "unit": spec["unit"]}

    listed_names = {spec["name"] for spec in listed}
    print(f"--- {workload} (seed {seed}, {seconds:g} s, "
          f"{'traced' if trace else 'untraced'}): "
          f"{measured['attempted']} attempted, {measured['failed']} failed")
    for name, m in sorted(measured["metrics"].items()):
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        note = "" if name in listed_names else "  (not in BENCHMARK.json)"
        print(f"  {name:32s} {value:>14s} {m['unit']}{note}")
    for p in measured["failures"] + problems:
        print(f"  CHECK FAILED: {p}")

    correct = proc.returncode == 0 and measured["failed"] == 0 and \
        not problems
    return {"correct": correct, "attempted": measured["attempted"],
            "failed": measured["failed"] + len(problems), "metrics": metrics}


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="per-layer run: spans, trace file, passes")
    parser.add_argument("--save", type=Path,
                        help="copy each run's result JSON into this "
                        "directory (input to compare.py)")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else names
    all_correct = True
    for workload in workloads:
        try:
            result = run_workload(bench, workload, args.seed, args.seconds,
                                  bool(args.trace), args.save)
        except (RuntimeError, subprocess.TimeoutExpired, OSError,
                ValueError) as e:
            print(f"run.py: {e}", file=sys.stderr)
            return 1
        all_correct = all_correct and result["correct"]
        if args.workload:
            print(json.dumps(result))
    if not args.workload:
        print("all workloads correct" if all_correct
              else "SOME CHECKS FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
