//===- obs/Trace.cpp - Solver phase tracing -------------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace layra {

static const char *const PhaseNames[kNumPhases] = {
    "ssa",          "pipeline",      "spill_round",  "problem_build",
    "liveness",     "spill_costs",   "interference", "mcs_peo",
    "clique_tree_dp", "stable_set",  "allocate",     "min_cost_flow",
    "simplex",      "ilp",           "spill_rewrite", "operand_fold",
    "assign",
};

const char *phaseName(Phase P) { return PhaseNames[unsigned(P)]; }

namespace obs {

std::atomic<uint32_t> Flags{0};

void setPhaseAccounting(bool Enabled) {
  if (Enabled)
    Flags.fetch_or(kPhaseAccounting, std::memory_order_relaxed);
  else
    Flags.fetch_and(~uint32_t(kPhaseAccounting), std::memory_order_relaxed);
}

namespace {

using Clock = std::chrono::steady_clock;

/// One live span on this thread's stack.
struct ActiveSpan {
  Phase P;
  uint32_t Mode;
  Clock::time_point Start;
  uint64_t SeqStart = 0;
  /// Inclusive milliseconds spent in already-finished child spans; the
  /// parent's self time is its total minus this.
  double ChildMs = 0;
};

thread_local std::vector<ActiveSpan> SpanStack;
thread_local PhaseTotals ThreadTotals;

/// Per-stage inclusive durations and step-DP states, over every thread.
Histogram PhaseHistograms[kNumPhases];
std::atomic<uint64_t> DpStates{0};

} // namespace

const PhaseTotals &threadPhaseTotals() { return ThreadTotals; }

void addDpStates(uint64_t Visited) {
  if (phaseAccountingEnabled())
    DpStates.fetch_add(Visited, std::memory_order_relaxed);
}

MetricsSnapshot phaseMetrics() {
  MetricsSnapshot Out;
  for (unsigned I = 0; I < kNumPhases; ++I) {
    Out.Histograms.push_back(PhaseHistograms[I].snapshot());
    Out.Histograms.back().Name =
        std::string("layra.phase.") + PhaseNames[I] + ".ms";
  }
  Out.Counters = {
      {"layra.pipeline.spill_rounds",
       Out.Histograms[unsigned(Phase::SpillRound)].Count},
      {"layra.dp.states_visited", DpStates.load(std::memory_order_relaxed)},
  };
  return Out;
}

void spanBegin(Phase P, uint32_t Mode) {
  TraceCollector &TC = TraceCollector::global();
  ActiveSpan S;
  S.P = P;
  S.Mode = Mode;
  const bool DetTrace = (Mode & kTraceEvents) && TC.deterministic();
  // Phase accounting always wants real durations; a deterministic trace
  // never consults the clock.
  if ((Mode & kPhaseAccounting) || ((Mode & kTraceEvents) && !DetTrace))
    S.Start = Clock::now();
  if (DetTrace)
    S.SeqStart = TC.nextSeq();
  SpanStack.push_back(S);
}

void spanEnd() {
  ActiveSpan S = SpanStack.back();
  SpanStack.pop_back();
  TraceCollector &TC = TraceCollector::global();
  const bool DetTrace = (S.Mode & kTraceEvents) && TC.deterministic();
  double DurMs = 0;
  if ((S.Mode & kPhaseAccounting) || ((S.Mode & kTraceEvents) && !DetTrace))
    DurMs = std::chrono::duration<double, std::milli>(Clock::now() - S.Start)
                .count();
  if (S.Mode & kTraceEvents) {
    TraceCollector::Event E;
    E.P = S.P;
    if (DetTrace) {
      uint64_t SeqEnd = TC.nextSeq();
      E.TsUs = double(S.SeqStart);
      E.DurUs = double(SeqEnd - S.SeqStart);
    } else {
      E.TsUs = TC.nowUs() - DurMs * 1000.0;
      E.DurUs = DurMs * 1000.0;
    }
    TC.append(E);
  }
  if (S.Mode & kPhaseAccounting) {
    unsigned I = unsigned(S.P);
    double SelfMs = DurMs - S.ChildMs;
    if (SelfMs < 0)
      SelfMs = 0;
    ThreadTotals.Ms[I] += SelfMs;
    ThreadTotals.Count[I] += 1;
    if (!SpanStack.empty())
      SpanStack.back().ChildMs += DurMs;
    PhaseHistograms[I].record(DurMs);
  }
}

} // namespace obs

//===----------------------------------------------------------------------===//
// TraceCollector
//===----------------------------------------------------------------------===//

/// Soft per-thread cap: a runaway trace degrades to dropped-event counting
/// instead of unbounded memory growth.
static constexpr size_t kMaxEventsPerThread = size_t(1) << 20;

struct TraceCollector::ThreadBuf {
  unsigned Tid;
  std::vector<Event> Events;
  uint64_t Dropped = 0;
};

static std::atomic<uint64_t> NextCollectorSerial{1};

TraceCollector::TraceCollector()
    : Serial(NextCollectorSerial.fetch_add(1, std::memory_order_relaxed)),
      Epoch(std::chrono::steady_clock::now()) {}

TraceCollector::~TraceCollector() = default;

TraceCollector &TraceCollector::global() {
  static TraceCollector G;
  return G;
}

void TraceCollector::enable(bool Deterministic) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Det = Deterministic;
    Epoch = std::chrono::steady_clock::now();
  }
  obs::Flags.fetch_or(obs::kTraceEvents, std::memory_order_relaxed);
}

void TraceCollector::disable() {
  obs::Flags.fetch_and(~uint32_t(obs::kTraceEvents),
                       std::memory_order_relaxed);
}

bool TraceCollector::enabled() const {
  return (obs::activeFlags() & obs::kTraceEvents) != 0;
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Buffers.clear();
  Generation.fetch_add(1, std::memory_order_release);
  Seq.store(0, std::memory_order_relaxed);
}

uint64_t TraceCollector::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->Events.size();
  return N;
}

double TraceCollector::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

TraceCollector::ThreadBuf &TraceCollector::localBuf() {
  thread_local struct {
    uint64_t Serial = 0;
    uint64_t Gen = 0;
    ThreadBuf *B = nullptr;
  } Cache;
  uint64_t Gen = Generation.load(std::memory_order_acquire);
  if (Cache.Serial != Serial || Cache.Gen != Gen) {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto Buf = std::make_unique<ThreadBuf>();
    Buf->Tid = unsigned(Buffers.size());
    Buffers.push_back(std::move(Buf));
    Cache.B = Buffers.back().get();
    Cache.Serial = Serial;
    Cache.Gen = Gen;
  }
  return *Cache.B;
}

void TraceCollector::append(const Event &E) {
  ThreadBuf &B = localBuf();
  if (B.Events.size() >= kMaxEventsPerThread) {
    ++B.Dropped;
    return;
  }
  B.Events.push_back(E);
}

/// Rounds a real-clock microsecond value to 3 decimals so serialized
/// timestamps stay compact.
static double roundUs(double Us) { return std::round(Us * 1000.0) / 1000.0; }

JsonValue TraceCollector::toJson() const {
  JsonValue Doc = JsonValue::object();
  JsonValue Events = JsonValue::array();
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &B : Buffers) {
    // Events append at span *end*, so children precede parents; re-sort by
    // begin timestamp (ties: longer span first => parent before child).
    std::vector<Event> Sorted = B->Events;
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [](const Event &L, const Event &R) {
                       if (L.TsUs != R.TsUs)
                         return L.TsUs < R.TsUs;
                       return L.DurUs > R.DurUs;
                     });
    for (const Event &E : Sorted) {
      JsonValue Ev = JsonValue::object();
      Ev.set("name", phaseName(E.P));
      Ev.set("cat", "layra");
      Ev.set("ph", "X");
      if (Det) {
        Ev.set("ts", JsonValue((long long)E.TsUs));
        Ev.set("dur", JsonValue((long long)E.DurUs));
      } else {
        Ev.set("ts", roundUs(E.TsUs));
        Ev.set("dur", roundUs(E.DurUs));
      }
      Ev.set("pid", 1);
      Ev.set("tid", int(B->Tid));
      Events.push(std::move(Ev));
    }
  }
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", "ms");
  return Doc;
}

bool TraceCollector::writeTo(std::FILE *Out) const {
  if (!Out)
    return false;
  std::string Text = toJson().dump(0);
  Text += "\n";
  return std::fwrite(Text.data(), 1, Text.size(), Out) == Text.size();
}

} // namespace layra
