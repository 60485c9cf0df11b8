#!/usr/bin/env python3
"""Steadiness check of Layra's benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads sweep,serve,huge]
                                [--seconds S] [--first-seed 1]

Runs two independent sets of --runs runs of each workload (by default the
ones BENCHMARK.json lists; set A on seeds first..first+runs-1, set B on
the next --runs seeds), then prints each metric the workload measures with
its median and quartiles per set, and whether the sets agree within the
bounds: each set's spread (interquartile distance over the median) stays
within the metric's bound, and set B's median differs from set A's, either
way, by at most the bound.  Bounds come from BENCHMARK.json for its
end_to_end metrics and from perfbench/metrics.json for the rest.

It also checks that the exact metrics (spill_cost, spill_ops, fit_frac)
are identical in every run, and identical between a run on 1 solver
thread and a run on nproc threads.  Exits 1 when anything disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("spill_cost", "spill_ops", "fit_frac")


def run(workload, seed, seconds, threads=0):
    """One run through run.py; returns the full metric report."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if threads:
        cmd += ["--threads", str(threads)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    report = None
    for line in done.stdout.splitlines():
        if line.startswith("report: "):
            report = json.loads(line[len("report: "):])
    if done.returncode != 0 or report is None or not report["correct"]:
        sys.exit("steady.py: %s seed %d failed (exit %d)" %
                 (workload, seed, done.returncode))
    return {k: v["value"] for k, v in report["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        table = spec["end_to_end"] + json.load(f)["metrics"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            first = args.first_seed + s * args.runs
            runs = [run(w, seed, seconds)
                    for seed in range(first, first + args.runs)]
            sets.append(runs)
        print("== %s (%d runs per set, %g s each)" % (w, args.runs, seconds))
        print("%-22s %-5s %12s %12s %12s %7s %7s  %s" %
              ("metric", "set", "median", "q1", "q3", "spread", "bound",
               "verdict"))
        for m in table:
            name, bound = m["name"], m["bound"]
            if name not in sets[0][0]:
                continue  # Not measured on this workload.
            meds = []
            for label, runs in zip("AB", sets):
                med, q1, q3, spread = summary([r[name] for r in runs])
                meds.append(med)
                good = spread <= bound
                ok &= good
                print("%-22s %-5s %12.6g %12.6g %12.6g %7.3f %7.3f  %s" %
                      (name, label, med, q1, q3, spread, bound,
                       "ok" if good else "SPREAD"))
            change = abs(meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
            good = change <= bound
            ok &= good
            print("%-22s %-5s %12s %12s %12s %7.3f %7.3f  %s" %
                  (name, "B/A", "", "", "", change, bound,
                   "agree" if good else "DISAGREE"))
        exact = [name for name in EXACT if name in sets[0][0]]
        for name in exact:
            seen = {r[name] for runs in sets for r in runs}
            if len(seen) != 1:
                ok = False
                print("%s: %s differs between runs: %s" % (w, name, seen))
        if exact and w != "serve":
            one = run(w, args.first_seed, min(seconds, 5), threads=1)
            many = run(w, args.first_seed, min(seconds, 5),
                       threads=len(os.sched_getaffinity(0)))
            for name in exact:
                same = one[name] == many[name] == sets[0][0][name]
                ok &= same
                print("%s: %s on 1 vs nproc threads: %s" %
                      (w, name, "identical" if same else
                       "DIFFERS (%s vs %s)" % (one[name], many[name])))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
