#!/usr/bin/env python3
"""Performance-regression gate over the committed BENCH_driver.json.

Reruns the canonical EEMBC register sweep (the baseline tracked at the
repo root) and fails when the build got meaningfully slower or when the
report depends on the thread count:

 1. Determinism: `--no-timing` reports must be byte-identical across
    thread counts (modulo the `"threads": N` configuration field).  Their
    deterministic fields are pinned by the tier-1 golden
    tests/driver/golden/eembc_sweep.json (ReportIOGoldenTest), which
    fails on any drift in allocation *results*.
 2. Timing: best-of-N single-thread wall_ms must stay within
    --threshold (default 15%) of the committed baseline's.  Best-of-N
    because CI wall clocks are noisy in one direction only: the fastest
    observed run is the least-contended one.

The fresh timed report is written to --out for artifact upload, in the
exact format of BENCH_driver.json: to accept an intended slowdown or
record a speedup, copy it over the baseline.

The serving stack is measured by `perfbench serve` (BENCHMARK.json), and
layra-loadgen itself exits nonzero on any request that does not
complete, fails or diverges byte-wise, so this gate covers the driver
only.

Usage:
  scripts/perf_gate.py --bench build/layra-bench \
      --baseline BENCH_driver.json --out fresh.json [--threshold 0.15]
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile

SWEEP = ["--suite=eembc", "--regs=4..16", "--quiet"]


def run_bench(bench, extra, out_path):
    cmd = [bench] + SWEEP + extra + [f"--json={out_path}"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def normalize_threads(text):
    return re.sub(r'"threads": \d+', '"threads": N', text)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True, help="layra-bench binary")
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_driver.json")
    ap.add_argument("--out", required=True,
                    help="where to write the fresh timed report")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional slowdown (default 0.15)")
    ap.add_argument("--runs", type=int, default=3, help="timed runs (best-of)")
    args = ap.parse_args()

    baseline = json.load(open(args.baseline))

    # --- Determinism across thread counts -------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        t1, t4 = f"{tmp}/t1.json", f"{tmp}/t4.json"
        run_bench(args.bench, ["--threads=1", "--no-timing"], t1)
        run_bench(args.bench, ["--threads=4", "--no-timing"], t4)
        a = normalize_threads(open(t1).read())
        b = normalize_threads(open(t4).read())
        if a != b:
            print("FAIL: --no-timing reports differ between thread counts",
                  file=sys.stderr)
            return 1
        print("ok: --no-timing report is thread-count independent")

    # --- Timed best-of-N vs baseline ------------------------------------
    base_ms = baseline["wall_ms"]
    best_ms, best_doc = None, None
    for i in range(args.runs):
        with tempfile.TemporaryDirectory() as tmp:
            timed = f"{tmp}/timed.json"
            run_bench(args.bench, ["--threads=1"], timed)
            doc = json.load(open(timed))
        print(f"timed run {i + 1}/{args.runs}: {doc['wall_ms']:.1f} ms")
        if best_ms is None or doc["wall_ms"] < best_ms:
            best_ms, best_doc = doc["wall_ms"], doc

    with open(args.out, "w") as f:
        json.dump(best_doc, f, indent=2)
        f.write("\n")
    limit = base_ms * (1.0 + args.threshold)
    verdict = "ok" if best_ms <= limit else "FAIL"
    print(f"{verdict}: best-of-{args.runs} {best_ms:.1f} ms vs baseline "
          f"{base_ms:.1f} ms (limit {limit:.1f} ms, "
          f"threshold {args.threshold:.0%})",
          file=sys.stderr if verdict == "FAIL" else sys.stdout)
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
