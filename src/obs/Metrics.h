//===- obs/Metrics.h - Process-wide metrics registry ------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight telemetry core: named counters, gauges, and log-linear
/// latency histograms behind a process-wide registry.  The hot path is a
/// single relaxed atomic increment into a per-thread shard -- no locks, no
/// contention -- while readers merge shards under a mutex into an immutable
/// MetricsSnapshot with p50/p95/p99 readout and Prometheus text exposition.
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
#include <memory>
#include <mutex>
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

/// Immutable merged view of one histogram: dense bucket counts plus
/// percentile readout with linear interpolation inside a bucket.
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

  /// Accumulates \p Other into this snapshot (same geometry assumed).
  void merge(const HistogramSnapshot &Other);
};

/// A standalone concurrent latency histogram.  record() is wait-free
/// (relaxed atomic adds); snapshot() gives a consistent-enough merged view
/// for reporting.  Server and loadgen share this type directly so their
/// latency figures are bucket-for-bucket comparable.
class Histogram {
public:
  Histogram();

  void record(double Ms) { recordTicks(hist::msToTicks(Ms)); }
  void recordTicks(uint64_t Ticks);

  HistogramSnapshot snapshot() const;
  void reset();

private:
  std::atomic<uint64_t> Buckets[hist::kNumBuckets];
  std::atomic<uint64_t> CountV;
  std::atomic<uint64_t> SumTicksV;
};

using CounterId = unsigned;
using GaugeId = unsigned;
using HistogramId = unsigned;

/// Point-in-time merged view of a whole registry, in registration order
/// (which is deterministic given a deterministic program).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, double>> Gauges;
  std::vector<HistogramSnapshot> Histograms;

  /// Lookups by name; null when absent.  The pointer points into this
  /// snapshot, so a lookup on a temporary snapshot does not compile: its
  /// pointer would dangle at the end of the statement.
  const uint64_t *counter(const std::string &Name) const &;
  const double *gauge(const std::string &Name) const &;
  const HistogramSnapshot *histogram(const std::string &Name) const &;
  const uint64_t *counter(const std::string &Name) const && = delete;
  const double *gauge(const std::string &Name) const && = delete;
  const HistogramSnapshot *histogram(const std::string &Name) const && = delete;

  /// Prometheus text exposition format (metric names sanitized to
  /// [a-zA-Z0-9_:]; histograms emit cumulative _bucket/_sum/_count series).
  std::string toPrometheusText() const;
};

/// Registry of named metrics with per-thread sharded collection.  Metric
/// registration (counter()/gauge()/histogram()) takes a mutex and returns a
/// stable dense id; the write paths add()/record() touch only the calling
/// thread's shard.  Capacities are fixed so shard cells can be flat atomic
/// arrays; exceeding a cap is a fatal configuration error, not a silent
/// drop.
class MetricsRegistry {
public:
  static constexpr unsigned kMaxCounters = 256;
  static constexpr unsigned kMaxGauges = 64;
  static constexpr unsigned kMaxHistograms = 64;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// The process-wide registry every instrumented subsystem reports into.
  static MetricsRegistry &global();

  /// Register-or-lookup by name; same name always returns the same id.
  CounterId counter(const std::string &Name);
  GaugeId gauge(const std::string &Name);
  HistogramId histogram(const std::string &Name);

  /// Hot paths: unsynchronized (relaxed) updates into this thread's shard.
  /// Counter arithmetic is modulo 2^64 -- overflow wraps, never traps.
  void add(CounterId Id, uint64_t Delta = 1);
  void record(HistogramId Id, double Ms);

  /// Gauges are set rarely (end of a run); a mutex keeps them simple.
  void set(GaugeId Id, double Value);

  /// Merged view of all shards.
  MetricsSnapshot snapshot() const;

  /// Zeroes every cell in place (shards stay valid for cached writers).
  void reset();

private:
  struct Shard;
  Shard &localShard();

  /// Process-unique serial: guards thread-local shard caches against a
  /// destroyed-and-reallocated registry at the same address.
  const uint64_t Serial;

  mutable std::mutex Mutex;
  std::vector<std::string> CounterNames;
  std::vector<std::string> GaugeNames;
  std::vector<std::string> HistogramNames;
  std::vector<double> GaugeValues;
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace layra

#endif // LAYRA_OBS_METRICS_H
