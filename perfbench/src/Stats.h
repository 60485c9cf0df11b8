//===- Stats.h - Percentiles and failure tallies for the benchmark -*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sample statistics the benchmark reports.  Percentiles use the
/// nearest-rank definition, and a percentile is reported only when at least
/// kMinBeyond samples lie beyond it: a p99 read from 200 samples is the
/// second-largest sample, not a tail estimate.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr size_t kMinBeyond = 10;

/// 1-based nearest rank of the \p Q quantile among \p N samples.
size_t nearestRank(size_t N, double Q);

/// Samples strictly beyond the nearest-rank \p Q quantile of \p N samples.
size_t samplesBeyond(size_t N, double Q);

/// True when the \p Q quantile of \p N samples may be reported.
bool percentileReportable(size_t N, double Q);

/// Nearest-rank \p Q quantile of \p Samples; NaN when it is not reportable.
double percentile(std::vector<double> Samples, double Q);

/// Median of \p Samples regardless of the sample count (for per-pass
/// repeats, where the count is the number of passes); NaN when empty.
double median(std::vector<double> Samples);

/// Counts operations attempted and failed.  A failure is any operation
/// whose output was wrong, rejected or missing; the first few reasons are
/// kept for the log.
class Tally {
public:
  void pass() { ++Attempted; }
  void fail(const std::string &Why);
  /// Records one operation that passed when \p Why is empty.
  void check(const std::string &Why) {
    if (Why.empty())
      pass();
    else
      fail(Why);
  }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// Failed / attempted; 0 when nothing was attempted.
  double errorRate() const;
  const std::vector<std::string> &reasons() const { return Reasons; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Reasons;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
