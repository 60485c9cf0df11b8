#include "obs/EventLog.h"

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include <unistd.h>

using namespace layra;
using namespace layra::obs;

const char *layra::obs::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::RequestStart:
    return "request_start";
  case EventKind::RequestEnd:
    return "request_end";
  case EventKind::SlowRequest:
    return "slow_request";
  case EventKind::QueueSaturated:
    return "queue_saturated";
  case EventKind::CachePressure:
    return "cache_pressure";
  case EventKind::Reject:
    return "reject";
  case EventKind::DrainBegin:
    return "drain_begin";
  case EventKind::DrainEnd:
    return "drain_end";
  case EventKind::Dump:
    return "dump";
  case EventKind::Fatal:
    return "fatal";
  }
  return "unknown";
}

namespace {

/// Truncating copy into a fixed char field; always NUL-terminates.
template <std::size_t N> void copyBounded(char (&Dst)[N], const char *Src) {
  if (!Src) {
    Dst[0] = '\0';
    return;
  }
  std::size_t Len = std::strlen(Src);
  if (Len >= N)
    Len = N - 1;
  std::memcpy(Dst, Src, Len);
  Dst[Len] = '\0';
}

std::size_t roundUpPow2(std::size_t V) {
  std::size_t P = 2;
  while (P < V)
    P <<= 1;
  return P;
}

/// Millisecond values carry microsecond precision in dumps; anything
/// finer is noise that bloats the JSON.
double roundMs(double Ms) { return std::round(Ms * 1e3) / 1e3; }

} // namespace

/// Seqlock discipline: Stamp is 0 for never-written, 2*Seq+1 while the
/// event for sequence Seq is being filled in, 2*Seq+2 once published.
/// A reader that observes the same published stamp before and after
/// copying the payload has a consistent event; any other interleaving
/// is detected and the slot skipped.  The payload is stored as atomic
/// words so a copy that races a writer is a torn read, never a data
/// race: each word store is a release (ordering the odd stamp before
/// it) and each word load an acquire (ordering the re-check after it).
struct EventLog::Slot {
  static constexpr std::size_t kWords = sizeof(Event) / sizeof(uint64_t);
  static_assert(std::is_trivially_copyable_v<Event> &&
                    sizeof(Event) % sizeof(uint64_t) == 0,
                "events must copy as whole words");
  std::atomic<uint64_t> Stamp{0};
  std::atomic<uint64_t> Words[kWords] = {};

  void store(const Event &E) {
    uint64_t W[kWords] = {};
    std::memcpy(W, &E, sizeof(Event));
    for (std::size_t I = 0; I < kWords; ++I)
      Words[I].store(W[I], std::memory_order_release);
  }
  Event load() const {
    uint64_t W[kWords] = {};
    for (std::size_t I = 0; I < kWords; ++I)
      W[I] = Words[I].load(std::memory_order_acquire);
    Event E;
    std::memcpy(&E, W, sizeof(Event));
    return E;
  }
};

EventLog::EventLog(std::size_t Capacity)
    : Slots(new Slot[roundUpPow2(Capacity)]),
      Mask(roundUpPow2(Capacity) - 1),
      Epoch(std::chrono::steady_clock::now()) {}

EventLog::~EventLog() = default;

EventLog &EventLog::global() {
  static EventLog Log;
  return Log;
}

double EventLog::sinceEpochMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void EventLog::record(EventKind K, double Value, const char *Trace,
                      const char *Detail) {
  if (!enabled())
    return;
  uint64_t Seq = Next.fetch_add(1, std::memory_order_relaxed);
  Event E;
  E.Seq = Seq;
  E.TsMs = sinceEpochMs();
  E.Kind = K;
  E.Value = Value;
  copyBounded(E.Trace, Trace);
  copyBounded(E.Detail, Detail);
  Slot &S = Slots[Seq & Mask];
  S.Stamp.store(2 * Seq + 1, std::memory_order_relaxed);
  S.store(E);
  S.Stamp.store(2 * Seq + 2, std::memory_order_release);
}

std::vector<EventLog::Event> EventLog::snapshot() const {
  uint64_t End = Next.load(std::memory_order_acquire);
  std::size_t Cap = Mask + 1;
  uint64_t Begin = End > Cap ? End - Cap : 0;
  std::vector<Event> Out;
  Out.reserve(static_cast<std::size_t>(End - Begin));
  for (uint64_t Seq = Begin; Seq < End; ++Seq) {
    const Slot &S = Slots[Seq & Mask];
    uint64_t Before = S.Stamp.load(std::memory_order_acquire);
    if (Before != 2 * Seq + 2)
      continue; // mid-write, or already lapped by a newer event
    Event Copy = S.load();
    if (S.Stamp.load(std::memory_order_relaxed) != Before)
      continue; // torn: a writer reclaimed the slot during the copy
    Out.push_back(Copy);
  }
  return Out;
}

std::string EventLog::toJsonLines() const {
  std::string Out;
  for (const Event &E : snapshot()) {
    JsonValue Doc = JsonValue::object();
    Doc.set("seq", static_cast<unsigned long long>(E.Seq));
    Doc.set("ts_ms", roundMs(E.TsMs));
    Doc.set("event", std::string(eventKindName(E.Kind)));
    Doc.set("value", roundMs(E.Value));
    if (E.Trace[0] != '\0')
      Doc.set("trace", std::string(E.Trace));
    if (E.Detail[0] != '\0')
      Doc.set("detail", std::string(E.Detail));
    Out += Doc.dump(0);
    Out += '\n';
  }
  return Out;
}

void EventLog::reset() {
  std::size_t Cap = Mask + 1;
  for (std::size_t I = 0; I < Cap; ++I) {
    Slots[I].Stamp.store(0, std::memory_order_relaxed);
    Slots[I].store(Event());
  }
  Next.store(0, std::memory_order_relaxed);
  Epoch = std::chrono::steady_clock::now();
}

bool layra::obs::writeFileAtomically(const std::string &Path,
                                     const std::string &Text,
                                     std::string *Error) {
  // The temp file must live on the same filesystem as the target for
  // rename(2) to be atomic; a sibling path guarantees that.  The pid
  // suffix keeps concurrent processes dumping to the same target from
  // trampling each other's scratch file.
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  std::FILE *Out = std::fopen(Tmp.c_str(), "w");
  if (!Out) {
    if (Error)
      *Error = "cannot open " + Tmp + " for writing";
    return false;
  }
  bool Ok =
      Text.empty() || std::fwrite(Text.data(), 1, Text.size(), Out) == Text.size();
  if (std::fclose(Out) != 0)
    Ok = false;
  if (!Ok) {
    std::remove(Tmp.c_str());
    if (Error)
      *Error = "short write to " + Tmp;
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    if (Error)
      *Error = "cannot rename " + Tmp + " to " + Path;
    return false;
  }
  return true;
}
