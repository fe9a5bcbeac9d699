#!/usr/bin/env python3
"""Record the simulated-output digests of the given seeds in pinned.json.

    python3 perfbench/pin.py 0-31 97

Run from the repository root. Simulated outputs are the paper's results
and must never move, so re-pin only for a change that is meant to alter
them, and say so in that change.
"""

import json
import os
import subprocess
import sys

import metrics
import run


def seeds_of(args):
    out = []
    for a in args:
        lo, _, hi = a.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    binary = run.build(os.path.abspath(".bench_build"))
    out_dir = os.path.abspath(os.path.join(".bench_build", "out"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(metrics.HERE, "pinned.json")
    pinned = metrics.load_pinned(path)
    for w in metrics.WORKLOADS:
        table = pinned.setdefault("digests", {}).setdefault(w, {})
        for seed in seeds_of(argv):
            proc = subprocess.run(
                [binary, "--workload", w, "--seed", str(seed), "--seconds",
                 "0", "--out", out_dir], stdout=subprocess.PIPE, text=True)
            raw = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or raw["failed"]:
                print(f"{w} seed {seed}: checks failed: {raw['failures']}",
                      file=sys.stderr)
                return 1
            table[str(seed)] = raw["digests"]
            print(f"{w} seed {seed}: pinned", file=sys.stderr)
    with open(path, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
