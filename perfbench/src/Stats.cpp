//===- Stats.cpp - Percentiles and failure tallies for the benchmark ------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace perfbench;

size_t perfbench::nearestRank(size_t N, double Q) {
  if (N == 0)
    return 0;
  // The epsilon keeps 0.99 * 1000 at rank 990: the product rounds to
  // 990.0000000000001 in binary floating point.
  double Rank = std::ceil(Q * double(N) - 1e-9);
  return std::min(N, std::max<size_t>(1, size_t(Rank)));
}

size_t perfbench::samplesBeyond(size_t N, double Q) {
  return N - nearestRank(N, Q);
}

bool perfbench::percentileReportable(size_t N, double Q) {
  return N > 0 && samplesBeyond(N, Q) >= kMinBeyond;
}

double perfbench::percentile(std::vector<double> Samples, double Q) {
  if (!percentileReportable(Samples.size(), Q))
    return std::numeric_limits<double>::quiet_NaN();
  size_t Rank = nearestRank(Samples.size(), Q);
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

void Tally::fail(const std::string &Why) {
  ++Attempted;
  ++Failed;
  if (Reasons.size() < 8)
    Reasons.push_back(Why);
}

double Tally::errorRate() const {
  return Attempted ? double(Failed) / double(Attempted) : 0.0;
}
