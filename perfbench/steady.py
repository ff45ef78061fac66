#!/usr/bin/env python3
"""Steadiness runs: each workload once per seed, with spread per metric.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds N] [--traced K]

For every workload it runs perfbench/run.py once per seed and prints, for
each end-to-end metric, the median, the first and third quartiles
(statistics.quantiles(n=4)), and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json; "ok" marks a spread below a third of
the bound and "WIDE" any other.
It also prints the informational detail figures, the share of failed
operations (which must be identical in every run), and with --traced K the
tracing overhead: the traced runs' sim_speed against the untraced median,
over the first K seeds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         cwd=ROOT).stdout.strip().splitlines()
    result = json.loads(out[-1])
    detail = {}
    for line in out[:-1]:
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    return result, detail


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    all_ok = True
    for workload in args.workloads.split(","):
        runs = [run(workload, s, args.seconds, 0) for s in args.seeds]
        print("== %s: %d runs, seeds %d-%d, %g s each" %
              (workload, len(runs), args.seeds[0], args.seeds[-1],
               args.seconds))
        correct = all(r["correct"] for r, _ in runs)
        shares = {(r["failed"], r["attempted"]) for r, _ in runs}
        share_set = {f / a for f, a in shares}
        print("   correct in every run: %s; failed share: %s" %
              (correct, ", ".join("%.6f" % s for s in sorted(share_set))))
        all_ok &= correct and len(share_set) == 1
        print("   %-26s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        medians = {}
        for name, bound in bounds.items():
            med, q1, q3, spread = summary(
                [r["metrics"][name]["value"] for r, _ in runs])
            medians[name] = med
            ok = spread < bound / 3
            all_ok &= ok
            print("   %-26s %14.6g %14.6g %14.6g %7.2f%% %5.0f%% %s" %
                  (name, med, q1, q3, 100 * spread, 100 * bound,
                   "ok" if ok else "WIDE"))
        for name in runs[0][1]:
            med, q1, q3, spread = summary([d[name]["value"] for _, d in runs])
            print("   %-26s %14.6g %14.6g %14.6g %7.2f%%  (detail)" %
                  (name, med, q1, q3, 100 * spread))
        if args.traced:
            traced = [run(workload, s, args.seconds, 1)[0]
                      for s in args.seeds[:args.traced]]
            speed = statistics.median(
                r["metrics"]["trace.sim_speed"]["value"] for r in traced)
            print("   tracing overhead: traced sim_speed %.6g vs untraced "
                  "%.6g (%.1f%% slower)" %
                  (speed, medians["sim_speed"],
                   100 * (1 - speed / medians["sim_speed"])))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
