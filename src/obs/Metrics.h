//===- obs/Metrics.h - Latency histograms and Prometheus text ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight telemetry core: a concurrent log-linear latency histogram
/// whose record() is a few relaxed atomic adds, an immutable snapshot of it
/// with p50/p95/p99 readout, and MetricsSnapshot, a plain list of named
/// counters, gauges and histograms that renders the Prometheus text
/// exposition.  Each front end fills a MetricsSnapshot from what it
/// measured (obs::phaseMetrics() for the solver phases).
///
/// Histogram geometry is HDR-style log-linear: durations are quantized to
/// ticks (1/1024 ms), the first 16 buckets are exact, and every power-of-two
/// octave above that is split into 16 sub-buckets, bounding relative
/// quantization error by 1/16 across the full uint64 tick range.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_OBS_METRICS_H
#define LAYRA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace layra {

namespace hist {

/// Sub-buckets per octave as a power of two: 16 sub-buckets => worst-case
/// relative quantization error of 1/16.
inline constexpr unsigned kSubBits = 4;
inline constexpr unsigned kSubBuckets = 1u << kSubBits;

/// Histogram tick resolution: ~1 microsecond (1/1024 ms, so the ms<->tick
/// conversion is an exact binary scale).
inline constexpr double kTicksPerMs = 1024.0;

/// 16 exact low buckets + 16 sub-buckets for each octave [2^4, 2^64).
inline constexpr unsigned kNumBuckets =
    kSubBuckets + (64 - kSubBits) * kSubBuckets;

/// Bucket index holding \p Ticks.  Total order: every bucket covers a
/// half-open tick range [bucketLowTicks(I), bucketHighTicks(I)).
unsigned bucketIndex(uint64_t Ticks);

/// Inclusive lower tick bound of bucket \p Index.
uint64_t bucketLowTicks(unsigned Index);

/// Exclusive upper tick bound of bucket \p Index (UINT64_MAX saturated for
/// the final bucket).
uint64_t bucketHighTicks(unsigned Index);

/// Quantizes a millisecond duration to ticks (negative clamps to 0).
uint64_t msToTicks(double Ms);

inline double ticksToMs(double Ticks) { return Ticks / kTicksPerMs; }

} // namespace hist

/// Immutable view of one histogram: dense bucket counts plus percentile
/// readout with linear interpolation inside a bucket.
struct HistogramSnapshot {
  std::string Name;
  uint64_t Count = 0;
  uint64_t SumTicks = 0;
  /// Dense bucket counts (hist::kNumBuckets entries) -- empty when no
  /// samples were ever recorded.
  std::vector<uint64_t> Buckets;

  double sumMs() const { return hist::ticksToMs(double(SumTicks)); }
  double meanMs() const { return Count ? sumMs() / double(Count) : 0.0; }

  /// Value (in ms) at quantile \p Q in [0, 1]; 0 when empty.  Exact to
  /// within the bucket's 1/16 relative width.
  double percentile(double Q) const;
};

/// A standalone concurrent latency histogram.  record() is wait-free
/// (relaxed atomic adds).  A snapshot()'s Count is the sum of the buckets
/// it read; its sum may include or miss a sample still being recorded.
/// Server, loadgen and the phase metrics (obs/Trace.h) share this type, so
/// their latency figures are bucket-for-bucket comparable.
class Histogram {
public:
  void record(double Ms) { recordTicks(hist::msToTicks(Ms)); }
  void recordTicks(uint64_t Ticks);

  HistogramSnapshot snapshot() const;

private:
  std::atomic<uint64_t> Buckets[hist::kNumBuckets] = {};
  std::atomic<uint64_t> SumTicksV{0};
};

/// Named counters, gauges and histograms, rendered in the order given.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, double>> Gauges;
  std::vector<HistogramSnapshot> Histograms;

  /// Prometheus text exposition format (metric names sanitized to
  /// [a-zA-Z0-9_:]; each histogram emits its occupied cumulative buckets,
  /// one le="+Inf" bucket equal to _count, then _sum and _count).
  std::string toPrometheusText() const;
};

} // namespace layra

#endif // LAYRA_OBS_METRICS_H
