#!/usr/bin/env python3
"""Build and run Layra's benchmark.

    python3 perfbench/run.py --workload sweep|serve|huge|all --seed N \
        --seconds S --trace 0|1 [--threads N]
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/ (the library sources plus the benchmark) under .bench_build/.
The benchmark prints its metrics, one per line, then a line starting
"report: " with every metric it measured, and last the result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

whose metrics are exactly BENCHMARK.json's end_to_end list (--trace 0) or
per_layer list (--trace 1).  A per-layer metric of a layer the workload
does not run reads 0.  The exit code is nonzero when any output was wrong,
and no result line is printed when the benchmark could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "perfbench-out")
# Workloads the benchmark runs by name that BENCHMARK.json does not gate
# changes on (perfbench/README.md says why).
UNGATED = ["huge"]


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build(targets):
    """Configures and builds perfbench/; False when either step fails."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log("cannot run", cmd[0] + ":", err)
            return False
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def run_workload(name, args, spec):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [os.path.join(BUILD, "layra-perfbench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(name, "did not produce a result (exit %d)" % done.returncode)
        return 2, None
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        log(name, "printed no result line")
        return 2, None
    for line in lines[:-1]:
        print(line)
    print("report:", lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and not args.trace and name in UNGATED:
            # An ungated workload need not measure every gated metric
            # (huge has too few tasks for a p99).
            continue
        if got is None and args.trace:
            # The workload does not run this layer.
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            continue
        if got is None or got["value"] is None:
            log(name, "measured no value for", m["name"])
            return 2, None
        if got["unit"] != m["unit"]:
            log(name, m["name"], "unit", got["unit"], "!=", m["unit"])
            return 2, None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build(["perfbench-tests"]):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench-tests")]).returncode

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]] + UNGATED
    if args.workload not in names + ["all"]:
        parser.error("--workload must be one of " + ", ".join(names + ["all"]))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not build(["layra-perfbench"]):
        return 2
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)

    if args.workload != "all":
        code, result = run_workload(args.workload, args, spec)
        if result is not None:
            print(json.dumps(result))
        return code

    # Every workload in turn, for a reader: one summary line at the end.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        print("== %s" % name)
        code, result = run_workload(name, args, spec)
        worst = max(worst, code)
        if result is None:
            summary["correct"] = False
            continue
        print(json.dumps(result))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][name + "." + metric] = value
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
