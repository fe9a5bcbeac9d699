#!/usr/bin/env python3
"""Repo benchmark: host wall time of the Brainwave reproduction.

    python3 perfbench/run.py --workload fleet_stream|fleet_replay|npu_models
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library sources
plus the benchmark program in perfbench/cpp) into .bench_build/, runs one workload
and prints one JSON result as the last line of stdout. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Exits non-zero when a build or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (a no-op when up to date) and build incrementally.
    Returns the binary."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build_dir = os.path.abspath(".bench_build")
    out_dir = os.path.join(build_dir, "out")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out_dir]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"workload printed nothing (exit {proc.returncode})")
        return 1
    raw = json.loads(lines[-1])
    for f in raw["failures"]:
        log(f"check failed: {f}")

    pinned = metrics.load_pinned()
    bad, compared = metrics.digest_mismatches(
        args.workload, args.seed, raw["digests"], pinned)
    for name in bad:
        log(f"digest {name} differs from the pinned value for seed "
            f"{args.seed}")
    if not compared:
        log(f"seed {args.seed} has no pinned digests; only pass-to-pass "
            "identity was checked")

    if args.trace:
        with open(raw["spans_file"]) as f:
            values = metrics.per_layer(raw, json.load(f))
    else:
        values = metrics.end_to_end(raw)
    res = metrics.result(raw, values, bad, compared)
    print(json.dumps(res))
    return 0 if res["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
