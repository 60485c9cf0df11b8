//===- Workloads.h - The benchmark's workloads ------------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload builds its inputs from the seed, measures for the given
/// number of seconds, checks every output, and returns its metrics by
/// name.  perfbench/README.md says why each workload exists and what each
/// metric means on it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Stats.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Fewest times a run repeats its workload's set-up; setup_s is the
/// median of the repeats.
inline constexpr int kSetupRepeats = 9;

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Solver threads; 0 picks the workload's default.
  unsigned Threads = 0;
  /// Directory for the Chrome trace and the server's socket.
  std::string OutDir = "perfbench/out";
};

struct Metric {
  double Value = 0;
  std::string Unit;
  /// Samples behind a percentile or median; 0 for totals and counts.
  uint64_t Samples = 0;
};

struct RunResult {
  /// Untraced run: every end-to-end metric that applies to the workload.
  /// Traced run: the per-layer metrics the workload exercises.
  std::map<std::string, Metric> Metrics;
  Tally Ops;
};

RunResult runSweep(const RunOptions &Opt);
RunResult runHuge(const RunOptions &Opt);
RunResult runServe(const RunOptions &Opt);

/// Processors available to the benchmark (nproc).
unsigned hardwareThreads();

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Seconds on the steady clock since an arbitrary origin.
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
