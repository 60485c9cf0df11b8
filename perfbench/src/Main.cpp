//===- Main.cpp - layra-perfbench command line ------------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
//   layra-perfbench --workload sweep|huge|serve --seed N --seconds S
//                   [--trace 0|1] [--threads N] [--out DIR]
//
// Prints one line per metric, then one JSON line:
//   {"workload": ..., "correct": ..., "attempted": N, "failed": N,
//    "metrics": {"name": {"value": V, "unit": U, "samples": N}, ...}}
// perfbench/run.py turns that line into the benchmark's result line.
// Exits 1 when any output was wrong, 2 on usage or set-up errors.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Json.h"
#include "support/ParseUtil.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>

using namespace perfbench;

unsigned perfbench::hardwareThreads() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0 && CPU_COUNT(&Set) > 0)
    return unsigned(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double perfbench::peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static int usage(const char *Why) {
  std::fprintf(stderr,
               "layra-perfbench: %s\n"
               "usage: layra-perfbench --workload sweep|huge|serve --seed N "
               "--seconds S [--trace 0|1] [--threads N] [--out DIR]\n",
               Why);
  return 2;
}

int main(int Argc, char **Argv) {
  RunOptions Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    unsigned N = 0;
    if (Arg == "--workload") {
      Opt.Workload = Value;
    } else if (Arg == "--seed" &&
               layra::parseBoundedUnsigned(Value.c_str(), ~0u, N)) {
      Opt.Seed = N;
    } else if (Arg == "--seconds") {
      if (!layra::parsePositiveSeconds(Value.c_str(), 3600, Opt.Seconds))
        return usage("--seconds must be a positive number up to 3600");
    } else if (Arg == "--trace" && (Value == "0" || Value == "1")) {
      Opt.Trace = Value == "1";
    } else if (Arg == "--threads" &&
               layra::parseBoundedUnsigned(Value.c_str(), 1024, N) && N > 0) {
      Opt.Threads = N;
    } else if (Arg == "--out") {
      Opt.OutDir = Value;
    } else {
      return usage(("bad argument " + Arg + " " + Value).c_str());
    }
  }
  RunResult (*Run)(const RunOptions &) = nullptr;
  if (Opt.Workload == "sweep")
    Run = runSweep;
  else if (Opt.Workload == "huge")
    Run = runHuge;
  else if (Opt.Workload == "serve")
    Run = runServe;
  else
    return usage("unknown workload");
  ::mkdir(Opt.OutDir.c_str(), 0755);

  RunResult Result;
  try {
    Result = Run(Opt);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "layra-perfbench: %s\n", E.what());
    return 2;
  }

  layra::JsonValue Metrics = layra::JsonValue::object();
  for (const auto &[Name, M] : Result.Metrics) {
    std::printf("  %-28s %16.6f %-8s", Name.c_str(), M.Value, M.Unit.c_str());
    if (M.Samples)
      std::printf(" (n=%llu)", static_cast<unsigned long long>(M.Samples));
    std::printf("\n");
    layra::JsonValue Entry = layra::JsonValue::object();
    // JSON has no NaN: a percentile without enough samples is null.
    Entry.set("value", std::isfinite(M.Value) ? layra::JsonValue(M.Value)
                                              : layra::JsonValue());
    Entry.set("unit", M.Unit);
    Entry.set("samples", static_cast<unsigned long long>(M.Samples));
    Metrics.set(Name, std::move(Entry));
  }
  for (const std::string &Why : Result.Ops.reasons())
    std::fprintf(stderr, "layra-perfbench: failure: %s\n", Why.c_str());

  bool Correct = Result.Ops.failed() == 0 && Result.Ops.attempted() > 0;
  layra::JsonValue Line = layra::JsonValue::object();
  Line.set("workload", Opt.Workload);
  Line.set("correct", Correct);
  Line.set("attempted",
           static_cast<unsigned long long>(Result.Ops.attempted()));
  Line.set("failed", static_cast<unsigned long long>(Result.Ops.failed()));
  Line.set("metrics", std::move(Metrics));
  std::printf("%s\n", Line.dump(0).c_str());
  return Correct ? 0 : 1;
}
