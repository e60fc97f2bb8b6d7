#!/usr/bin/env python3
"""Repeatability of the kali benchmark: the figures its bounds rest on.

    python3 perfbench/repeat.py [--runs 10] [--seconds 10] [--workloads a,b]
                                [--first-seed 1] [--workers-check WORKLOAD]

Runs each workload --runs times, each with its own seed, and prints per
end-to-end metric the median and the spread (distance between the first
and third quartile, statistics.quantiles(n=4), as a share of the median)
next to the bound in BENCHMARK.json.  A spread above a third of its bound
(setup_s excepted) is flagged.  It also checks that every run was correct
with no failed operation.

With --workers-check it then runs that workload twice on one seed, with 1
and with 4 simulator workers, and confirms the modeled metrics (modeled_s,
msgs, wire_mb) are identical.  Exits non-zero if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODELED = ("modeled_s", "msgs", "wire_mb")


def run(workload, seed, seconds, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workers-check", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in names:
        results = [run(w, args.first_seed + i, seconds) for i in range(args.runs)]
        bad = [r for r in results if not r["correct"] or r["failed"] != 0]
        ok &= not bad
        print(f"\n{w}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s each"
              f"{'' if not bad else f', {len(bad)} INCORRECT'}")
        print(f"  {'metric':<12} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  <- above bound/3"
                ok = False
            print(f"  {name:<12} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}"
                  f" {spread:>8.4f} {bound:>6}{flag}")

    if args.workers_check:
        w = args.workers_check
        a = run(w, args.first_seed, 1, ["--workers", "1"])
        b = run(w, args.first_seed, 1, ["--workers", "4"])
        same = all(a["metrics"][m]["value"] == b["metrics"][m]["value"]
                   for m in MODELED)
        ok &= same
        print(f"\nworkers 1 vs 4 on {w}, seed {args.first_seed}: modeled metrics "
              + ("identical" if same else "DIFFER"))
        for m in MODELED:
            print(f"  {m:<10} {a['metrics'][m]['value']!r:>24} "
                  f"{b['metrics'][m]['value']!r:>24}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
