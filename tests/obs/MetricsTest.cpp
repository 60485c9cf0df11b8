//===- tests/obs/MetricsTest.cpp - Histogram and exposition tests ---------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics core (obs/Metrics.h): log-linear bucket geometry, percentile
/// readout against an exact sorted reference, snapshots taken while other
/// threads record, and the Prometheus text exposition.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace layra;

//===----------------------------------------------------------------------===//
// Bucket geometry
//===----------------------------------------------------------------------===//

TEST(HistogramBucketsTest, BucketsPartitionTheTickRange) {
  // Every bucket's [low, high) range must start exactly where the previous
  // one ended: no gaps, no overlaps, over the whole geometry.
  uint64_t PrevHigh = 0;
  for (unsigned I = 0; I < hist::kNumBuckets; ++I) {
    EXPECT_EQ(hist::bucketLowTicks(I), PrevHigh) << "bucket " << I;
    EXPECT_GT(hist::bucketHighTicks(I), hist::bucketLowTicks(I))
        << "bucket " << I;
    PrevHigh = hist::bucketHighTicks(I);
  }
  EXPECT_EQ(PrevHigh, UINT64_MAX);
}

TEST(HistogramBucketsTest, BucketIndexRoundTripsBoundaries) {
  // Each bucket's own boundaries map back to it: the low tick is inside,
  // the high tick belongs to the next bucket.
  for (unsigned I = 0; I < hist::kNumBuckets; ++I) {
    EXPECT_EQ(hist::bucketIndex(hist::bucketLowTicks(I)), I);
    uint64_t High = hist::bucketHighTicks(I);
    if (High != UINT64_MAX)
      EXPECT_EQ(hist::bucketIndex(High), I + 1);
    else
      EXPECT_EQ(hist::bucketIndex(UINT64_MAX), I);
  }
}

TEST(HistogramBucketsTest, LowBucketsAreExact) {
  // The first 16 ticks each get their own bucket: sub-bucket-resolution
  // values are counted exactly, not quantized.
  for (uint64_t T = 0; T < hist::kSubBuckets; ++T) {
    EXPECT_EQ(hist::bucketIndex(T), T);
    EXPECT_EQ(hist::bucketLowTicks(unsigned(T)), T);
    EXPECT_EQ(hist::bucketHighTicks(unsigned(T)), T + 1);
  }
}

TEST(HistogramBucketsTest, RelativeWidthBoundedBySixteenth) {
  // Above the exact range, bucket width / low bound <= 1/16: the promised
  // worst-case relative quantization error.
  for (unsigned I = hist::kSubBuckets; I < hist::kNumBuckets - 1; ++I) {
    uint64_t Lo = hist::bucketLowTicks(I);
    uint64_t Width = hist::bucketHighTicks(I) - Lo;
    EXPECT_LE(double(Width) / double(Lo), 1.0 / 16.0 + 1e-12)
        << "bucket " << I;
  }
}

TEST(HistogramBucketsTest, MsToTicksClampsAndQuantizes) {
  EXPECT_EQ(hist::msToTicks(-1.0), 0u);
  EXPECT_EQ(hist::msToTicks(0.0), 0u);
  // 1 ms = 1024 ticks exactly (binary scale).
  EXPECT_EQ(hist::msToTicks(1.0), uint64_t(hist::kTicksPerMs));
  // Absurdly large durations saturate instead of overflowing to 0.
  EXPECT_GT(hist::msToTicks(1e30), uint64_t(1) << 62);
}

//===----------------------------------------------------------------------===//
// Percentiles vs an exact reference
//===----------------------------------------------------------------------===//

namespace {

double exactPercentile(std::vector<double> Sorted, double Q) {
  size_t Rank = size_t(std::ceil(Q * double(Sorted.size())));
  Rank = std::max<size_t>(Rank, 1);
  Rank = std::min(Rank, Sorted.size());
  return Sorted[Rank - 1];
}

} // namespace

TEST(HistogramTest, PercentilesTrackExactReferenceWithinBucketError) {
  Histogram H;
  std::vector<double> Values;
  Rng R(20260808);
  for (unsigned I = 0; I < 5000; ++I) {
    // Log-uniform over roughly [0.01ms, 1000ms] -- the latency shape the
    // histogram is built for.
    double Ms = std::pow(10.0, -2.0 + 5.0 * R.nextDouble());
    Values.push_back(Ms);
    H.record(Ms);
  }
  std::sort(Values.begin(), Values.end());
  HistogramSnapshot Snap = H.snapshot();
  ASSERT_EQ(Snap.Count, Values.size());
  for (double Q : {0.50, 0.90, 0.95, 0.99}) {
    double Exact = exactPercentile(Values, Q);
    double Approx = Snap.percentile(Q);
    // The estimate may be off by one bucket width (1/16 relative) plus the
    // one-tick quantization floor.
    double Tolerance = Exact / 16.0 + 2.0 / hist::kTicksPerMs;
    EXPECT_NEAR(Approx, Exact, Tolerance) << "q=" << Q;
  }
}

TEST(HistogramTest, EmptyAndSingleSampleEdges) {
  Histogram H;
  EXPECT_EQ(H.snapshot().Count, 0u);
  EXPECT_EQ(H.snapshot().percentile(0.99), 0.0);
  H.record(2.5);
  HistogramSnapshot Snap = H.snapshot();
  EXPECT_EQ(Snap.Count, 1u);
  // Every percentile of a single sample is that sample (within a bucket).
  EXPECT_NEAR(Snap.percentile(0.50), 2.5, 2.5 / 16.0 + 0.01);
  EXPECT_NEAR(Snap.percentile(0.99), 2.5, 2.5 / 16.0 + 0.01);
  EXPECT_NEAR(Snap.meanMs(), 2.5, 0.01);
}

//===----------------------------------------------------------------------===//
// Expositions
//===----------------------------------------------------------------------===//

namespace {

using BucketLine = std::pair<std::string, uint64_t>;

/// The `le` label and count of each `<Family>_bucket` line of \p Text, in
/// order.
std::vector<BucketLine> bucketLines(const std::string &Text,
                                    const std::string &Family) {
  std::vector<BucketLine> Lines;
  const std::string Prefix = Family + "_bucket{le=\"";
  for (size_t At = Text.find(Prefix); At != std::string::npos;
       At = Text.find(Prefix, At + 1)) {
    size_t Le = At + Prefix.size();
    size_t LeEnd = Text.find('"', Le);
    // The count follows the closing `"} `.
    Lines.emplace_back(Text.substr(Le, LeEnd - Le),
                       std::stoull(Text.substr(LeEnd + 3)));
  }
  return Lines;
}

/// The counts of the `le="+Inf"` lines among \p Lines.
std::vector<uint64_t> infCounts(const std::vector<BucketLine> &Lines) {
  std::vector<uint64_t> Counts;
  for (const BucketLine &L : Lines)
    if (L.first == "+Inf")
      Counts.push_back(L.second);
  return Counts;
}

} // namespace

TEST(MetricsSnapshotTest, PrometheusTextSanitizesAndCumulates) {
  Histogram H;
  H.record(0.5);
  H.record(0.5);
  H.record(200.0);
  MetricsSnapshot Snap;
  Snap.Counters = {{"layra.test.requests", 5}};
  Snap.Histograms = {H.snapshot()};
  Snap.Histograms[0].Name = "layra.test.latency_ms";
  std::string Text = Snap.toPrometheusText();
  // Dots sanitize to underscores; TYPE lines announce each family.
  EXPECT_NE(Text.find("# TYPE layra_test_requests counter"),
            std::string::npos);
  EXPECT_NE(Text.find("layra_test_requests 5"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE layra_test_latency_ms histogram"),
            std::string::npos);
  // _count and _sum series exist and the bucket counts are cumulative:
  // the two occupied bounded buckets read 2, then 3.
  EXPECT_NE(Text.find("layra_test_latency_ms_count 3"), std::string::npos);
  EXPECT_NE(Text.find("layra_test_latency_ms_sum"), std::string::npos);
  std::vector<uint64_t> Bounded;
  for (const BucketLine &L : bucketLines(Text, "layra_test_latency_ms"))
    if (L.first != "+Inf")
      Bounded.push_back(L.second);
  EXPECT_EQ(Bounded, (std::vector<uint64_t>{2, 3}));
}

TEST(MetricsSnapshotTest, EveryHistogramHasOneInfBucketEqualToCount) {
  // The text format requires a le="+Inf" bucket equal to _count: for an
  // empty histogram, for ordinary samples, and once only when the
  // unbounded final bucket itself holds samples.
  Histogram Ordinary, Unbounded;
  Ordinary.record(0.5);
  Ordinary.record(200.0);
  Unbounded.record(1.0);
  Unbounded.recordTicks(UINT64_MAX);
  MetricsSnapshot Snap;
  Snap.Histograms = {HistogramSnapshot(), Ordinary.snapshot(),
                     Unbounded.snapshot()};
  Snap.Histograms[0].Name = "empty_ms";
  Snap.Histograms[1].Name = "ordinary_ms";
  Snap.Histograms[2].Name = "unbounded_ms";
  std::string Text = Snap.toPrometheusText();
  EXPECT_EQ(infCounts(bucketLines(Text, "empty_ms")),
            std::vector<uint64_t>{0});
  EXPECT_EQ(infCounts(bucketLines(Text, "ordinary_ms")),
            std::vector<uint64_t>{2});
  EXPECT_EQ(infCounts(bucketLines(Text, "unbounded_ms")),
            std::vector<uint64_t>{2});
  EXPECT_NE(Text.find("empty_ms_count 0\n"), std::string::npos);
  EXPECT_NE(Text.find("unbounded_ms_count 2\n"), std::string::npos);
}

TEST(MetricsSnapshotTest, SnapshotsTakenWhileRecordingStayValid) {
  // Writers record while snapshots are rendered: in every exposition the
  // last bucket is le="+Inf", equal to _count and to no less than any
  // cumulative bucket, and the count never falls.
  constexpr unsigned kWriters = 3;
  Histogram H;
  std::atomic<bool> Stop{false};
  std::vector<uint64_t> Recorded(kWriters, 0);
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T < kWriters; ++T)
    Writers.emplace_back([&H, &Stop, &Recorded, T] {
      uint64_t N = 0;
      while (!Stop.load(std::memory_order_relaxed))
        H.recordTicks((N++ * 2654435761u + T) % 100000);
      Recorded[T] = N;
    });
  uint64_t Last = 0;
  for (unsigned I = 0; I < 100; ++I) {
    MetricsSnapshot Snap;
    Snap.Histograms = {H.snapshot()};
    Snap.Histograms[0].Name = "racing_ms";
    uint64_t Count = Snap.Histograms[0].Count;
    std::vector<BucketLine> Lines =
        bucketLines(Snap.toPrometheusText(), "racing_ms");
    // Non-fatal checks: the writers must be joined on failure too.
    EXPECT_FALSE(Lines.empty());
    if (Lines.empty())
      break;
    EXPECT_EQ(Lines.back(), (BucketLine{"+Inf", Count}));
    for (const BucketLine &L : Lines)
      EXPECT_LE(L.second, Count) << "le=" << L.first << " snapshot " << I;
    EXPECT_GE(Count, Last);
    Last = Count;
    if (HasFailure())
      break;
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Writers)
    W.join();
  uint64_t Total = 0;
  for (uint64_t N : Recorded)
    Total += N;
  EXPECT_EQ(H.snapshot().Count, Total);
}
