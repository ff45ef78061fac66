#!/usr/bin/env python3
"""Self-checks of the benchmark that are too slow for every timed run.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seeds 1-2]

1. Repeatability: each workload run twice with the same seed, in two
   processes, gives the same deterministic figures bit for bit.
2. Lane invariance: city_islands at 2 lanes has the world digest and the
   deterministic figures of the serial (lanes = 1) oracle.

Exit code 0 when every check holds.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ["readings_delivered", "reading_latency_p50_ms",
                 "reading_latency_p99_ms", "frames_per_reading",
                 "commands_applied", "command_latency_p50_ms"]


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + list(args)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         cwd=ROOT).stdout.strip().splitlines()
    figures = dict(json.loads(out[-1])["metrics"])
    for line in out[:-1]:
        if line.startswith('{"detail"'):
            figures.update(json.loads(line)["detail"])
    return json.loads(out[-1]), figures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-2")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    ok = True
    for workload in ("plant_mesh", "backend_ingest", "city_islands"):
        for seed in seeds:
            base = ["--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--trace", "0"]
            (r1, f1), (r2, f2) = run(*base), run(*base)
            same = all(f1[k] == f2[k] for k in DETERMINISTIC if k in f1)
            good = r1["correct"] and r2["correct"] and same
            ok &= good
            print("repeatable  %-15s seed %d: %s" %
                  (workload, seed, "ok" if good else "FAILED"))
    for seed in seeds:
        r, _ = run("--workload", "city_islands", "--seed", str(seed),
                   "--seconds", "1", "--trace", "0", "--check-lanes")
        ok &= r["correct"]
        print("lane-invariant city_islands seed %d: %s" %
              (seed, "ok" if r["correct"] else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
