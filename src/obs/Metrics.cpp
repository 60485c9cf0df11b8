//===- obs/Metrics.cpp - Process-wide metrics registry --------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/Compiler.h"

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

void HistogramSnapshot::merge(const HistogramSnapshot &Other) {
  Count += Other.Count;
  SumTicks += Other.SumTicks;
  if (Other.Buckets.empty())
    return;
  if (Buckets.empty())
    Buckets.assign(hist::kNumBuckets, 0);
  for (unsigned I = 0; I < hist::kNumBuckets; ++I)
    Buckets[I] += Other.Buckets[I];
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram() : CountV(0), SumTicksV(0) {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
}

void Histogram::recordTicks(uint64_t Ticks) {
  Buckets[hist::bucketIndex(Ticks)].fetch_add(1, std::memory_order_relaxed);
  CountV.fetch_add(1, std::memory_order_relaxed);
  SumTicksV.fetch_add(Ticks, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Count = CountV.load(std::memory_order_relaxed);
  S.SumTicks = SumTicksV.load(std::memory_order_relaxed);
  if (S.Count == 0)
    return S;
  S.Buckets.resize(hist::kNumBuckets);
  for (unsigned I = 0; I < hist::kNumBuckets; ++I)
    S.Buckets[I] = Buckets[I].load(std::memory_order_relaxed);
  return S;
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  CountV.store(0, std::memory_order_relaxed);
  SumTicksV.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

const uint64_t *MetricsSnapshot::counter(const std::string &Name) const & {
  for (const auto &C : Counters)
    if (C.first == Name)
      return &C.second;
  return nullptr;
}

const double *MetricsSnapshot::gauge(const std::string &Name) const & {
  for (const auto &G : Gauges)
    if (G.first == Name)
      return &G.second;
  return nullptr;
}

const HistogramSnapshot *
MetricsSnapshot::histogram(const std::string &Name) const & {
  for (const auto &H : Histograms)
    if (H.Name == Name)
      return &H;
  return nullptr;
}

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
    uint64_t Cumulative = 0;
    if (!H.Buckets.empty()) {
      for (unsigned I = 0; I < hist::kNumBuckets; ++I) {
        if (H.Buckets[I] == 0)
          continue;
        Cumulative += H.Buckets[I];
        uint64_t Hi = hist::bucketHighTicks(I);
        Out += N + "_bucket{le=\"";
        if (Hi == UINT64_MAX)
          Out += "+Inf";
        else
          appendNumber(Out, hist::ticksToMs(double(Hi)));
        Out += "\"} " + std::to_string(Cumulative) + "\n";
      }
    }
    if (Cumulative != H.Count)
      Out += N + "_bucket{le=\"+Inf\"} " + std::to_string(H.Count) + "\n";
    Out += N + "_sum ";
    appendNumber(Out, H.sumMs());
    Out += "\n" + N + "_count " + std::to_string(H.Count) + "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

/// One thread's private cells.  Counter cells are flat; histograms (7.8 KiB
/// of buckets each) are allocated lazily on first record from this thread.
struct MetricsRegistry::Shard {
  std::atomic<uint64_t> Counters[kMaxCounters];
  std::atomic<Histogram *> Histograms[kMaxHistograms];

  Shard() {
    for (auto &C : Counters)
      C.store(0, std::memory_order_relaxed);
    for (auto &H : Histograms)
      H.store(nullptr, std::memory_order_relaxed);
  }
  ~Shard() {
    for (auto &H : Histograms)
      delete H.load(std::memory_order_relaxed);
  }
};

static std::atomic<uint64_t> NextRegistrySerial{1};

MetricsRegistry::MetricsRegistry()
    : Serial(NextRegistrySerial.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry G;
  return G;
}

static unsigned registerName(std::vector<std::string> &Names,
                             const std::string &Name, unsigned Cap,
                             const char *Kind) {
  for (unsigned I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return I;
  if (Names.size() >= Cap) {
    std::fprintf(stderr, "layra: metrics registry %s capacity (%u) exceeded "
                         "registering '%s'\n",
                 Kind, Cap, Name.c_str());
    layraFatalError("metrics registry capacity exceeded");
  }
  Names.push_back(Name);
  return unsigned(Names.size() - 1);
}

CounterId MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return registerName(CounterNames, Name, kMaxCounters, "counter");
}

GaugeId MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  unsigned Id = registerName(GaugeNames, Name, kMaxGauges, "gauge");
  if (Id >= GaugeValues.size())
    GaugeValues.resize(Id + 1, 0.0);
  return Id;
}

HistogramId MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return registerName(HistogramNames, Name, kMaxHistograms, "histogram");
}

MetricsRegistry::Shard &MetricsRegistry::localShard() {
  // Keyed by the registry's process-unique serial: a stale cache entry from
  // another (possibly destroyed) registry can never alias this one.
  thread_local struct {
    uint64_t Serial = 0;
    Shard *S = nullptr;
  } Cache;
  if (Cache.Serial != Serial) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Shards.push_back(std::make_unique<Shard>());
    Cache.S = Shards.back().get();
    Cache.Serial = Serial;
  }
  return *Cache.S;
}

void MetricsRegistry::add(CounterId Id, uint64_t Delta) {
  localShard().Counters[Id].fetch_add(Delta, std::memory_order_relaxed);
}

void MetricsRegistry::record(HistogramId Id, double Ms) {
  Shard &S = localShard();
  Histogram *H = S.Histograms[Id].load(std::memory_order_acquire);
  if (!H) {
    Histogram *Fresh = new Histogram();
    if (S.Histograms[Id].compare_exchange_strong(H, Fresh,
                                                 std::memory_order_acq_rel))
      H = Fresh;
    else
      delete Fresh; // Another writer won (only possible via reset races).
  }
  H->record(Ms);
}

void MetricsRegistry::set(GaugeId Id, double Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Id < GaugeValues.size())
    GaugeValues[Id] = Value;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot Out;
  std::lock_guard<std::mutex> Lock(Mutex);
  Out.Counters.reserve(CounterNames.size());
  for (unsigned I = 0; I < CounterNames.size(); ++I) {
    uint64_t Total = 0;
    for (const auto &S : Shards)
      Total += S->Counters[I].load(std::memory_order_relaxed);
    Out.Counters.emplace_back(CounterNames[I], Total);
  }
  Out.Gauges.reserve(GaugeNames.size());
  for (unsigned I = 0; I < GaugeNames.size(); ++I)
    Out.Gauges.emplace_back(GaugeNames[I], GaugeValues[I]);
  Out.Histograms.reserve(HistogramNames.size());
  for (unsigned I = 0; I < HistogramNames.size(); ++I) {
    HistogramSnapshot H;
    H.Name = HistogramNames[I];
    for (const auto &S : Shards)
      if (Histogram *Part = S->Histograms[I].load(std::memory_order_acquire))
        H.merge(Part->snapshot());
    Out.Histograms.push_back(std::move(H));
  }
  return Out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &S : Shards) {
    for (auto &C : S->Counters)
      C.store(0, std::memory_order_relaxed);
    for (auto &H : S->Histograms)
      if (Histogram *Part = H.load(std::memory_order_relaxed))
        Part->reset();
  }
  for (double &G : GaugeValues)
    G = 0.0;
}

} // namespace layra
