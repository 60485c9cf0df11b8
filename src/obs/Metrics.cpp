//===- obs/Metrics.cpp - Latency histograms and Prometheus text -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cstdio>

namespace layra {

//===----------------------------------------------------------------------===//
// Log-linear bucket geometry
//===----------------------------------------------------------------------===//

namespace hist {

static inline unsigned log2Floor(uint64_t Value) {
#if defined(__GNUC__) || defined(__clang__)
  return 63u - unsigned(__builtin_clzll(Value));
#else
  unsigned E = 0;
  while (Value >>= 1)
    ++E;
  return E;
#endif
}

unsigned bucketIndex(uint64_t Ticks) {
  if (Ticks < kSubBuckets)
    return unsigned(Ticks);
  unsigned E = log2Floor(Ticks);
  unsigned Sub = unsigned((Ticks >> (E - kSubBits)) - kSubBuckets);
  return (E - kSubBits + 1) * kSubBuckets + Sub;
}

uint64_t bucketLowTicks(unsigned Index) {
  if (Index < kSubBuckets)
    return Index;
  unsigned E = kSubBits + Index / kSubBuckets - 1;
  unsigned Sub = Index % kSubBuckets;
  return (uint64_t(1) << E) + (uint64_t(Sub) << (E - kSubBits));
}

uint64_t bucketHighTicks(unsigned Index) {
  if (Index + 1 >= kNumBuckets)
    return UINT64_MAX;
  return bucketLowTicks(Index + 1);
}

uint64_t msToTicks(double Ms) {
  if (!(Ms > 0.0))
    return 0;
  double Ticks = Ms * kTicksPerMs + 0.5;
  if (Ticks >= 18446744073709549568.0) // Largest double below 2^64.
    return UINT64_MAX;
  return uint64_t(Ticks);
}

} // namespace hist

//===----------------------------------------------------------------------===//
// HistogramSnapshot
//===----------------------------------------------------------------------===//

double HistogramSnapshot::percentile(double Q) const {
  if (Count == 0 || Buckets.empty())
    return 0.0;
  Q = std::min(1.0, std::max(0.0, Q));
  // 1-based rank of the requested order statistic.
  double Rank = Q * double(Count);
  if (Rank < 1.0)
    Rank = 1.0;
  uint64_t Before = 0;
  for (unsigned I = 0; I < Buckets.size(); ++I) {
    uint64_t Here = Buckets[I];
    if (Here == 0)
      continue;
    if (double(Before + Here) >= Rank) {
      uint64_t Lo = hist::bucketLowTicks(I);
      uint64_t Hi = hist::bucketHighTicks(I);
      if (Hi == UINT64_MAX) // Unbounded final bucket: report its floor.
        return hist::ticksToMs(double(Lo));
      double Frac = (Rank - double(Before)) / double(Here);
      return hist::ticksToMs(double(Lo) + Frac * double(Hi - Lo));
    }
    Before += Here;
  }
  // Rounding left the rank past the last populated bucket.
  for (unsigned I = unsigned(Buckets.size()); I-- > 0;)
    if (Buckets[I])
      return hist::ticksToMs(double(hist::bucketHighTicks(I) == UINT64_MAX
                                        ? hist::bucketLowTicks(I)
                                        : hist::bucketHighTicks(I)));
  return 0.0;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

void Histogram::recordTicks(uint64_t Ticks) {
  Buckets[hist::bucketIndex(Ticks)].fetch_add(1, std::memory_order_relaxed);
  SumTicksV.fetch_add(Ticks, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.SumTicks = SumTicksV.load(std::memory_order_relaxed);
  // Count is the sum of the buckets as read, so no cumulative bucket can
  // exceed it while other threads record.
  S.Buckets.resize(hist::kNumBuckets);
  for (unsigned I = 0; I < hist::kNumBuckets; ++I) {
    S.Buckets[I] = Buckets[I].load(std::memory_order_relaxed);
    S.Count += S.Buckets[I];
  }
  if (S.Count == 0)
    S.Buckets.clear();
  return S;
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

/// Prometheus metric names allow [a-zA-Z0-9_:] only.
static std::string sanitizeMetricName(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == ':';
    if (!Ok)
      C = '_';
  }
  return Out;
}

static void appendNumber(std::string &Out, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
  Out += Buf;
}

std::string MetricsSnapshot::toPrometheusText() const {
  std::string Out;
  for (const auto &C : Counters) {
    std::string N = sanitizeMetricName(C.first);
    Out += "# TYPE " + N + " counter\n";
    Out += N + " " + std::to_string(C.second) + "\n";
  }
  for (const auto &G : Gauges) {
    std::string N = sanitizeMetricName(G.first);
    Out += "# TYPE " + N + " gauge\n";
    Out += N + " ";
    appendNumber(Out, G.second);
    Out += "\n";
  }
  for (const HistogramSnapshot &H : Histograms) {
    std::string N = sanitizeMetricName(H.Name);
    Out += "# TYPE " + N + " histogram\n";
    // Occupied bounded buckets only; the unbounded final bucket is the
    // le="+Inf" line, which the format requires once, equal to _count.
    uint64_t Cumulative = 0;
    for (unsigned I = 0; I + 1 < H.Buckets.size(); ++I) {
      if (H.Buckets[I] == 0)
        continue;
      Cumulative += H.Buckets[I];
      Out += N + "_bucket{le=\"";
      appendNumber(Out, hist::ticksToMs(double(hist::bucketHighTicks(I))));
      Out += "\"} " + std::to_string(Cumulative) + "\n";
    }
    Out += N + "_bucket{le=\"+Inf\"} " + std::to_string(H.Count) + "\n";
    Out += N + "_sum ";
    appendNumber(Out, H.sumMs());
    Out += "\n" + N + "_count " + std::to_string(H.Count) + "\n";
  }
  return Out;
}

} // namespace layra
