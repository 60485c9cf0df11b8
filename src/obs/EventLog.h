// Bounded, wait-free structured event log: the serve stack's flight
// recorder.  Writers (reader threads, the dispatcher, signal-driven dump
// paths) append fixed-size typed events to a power-of-two ring with a
// single fetch_add and a few atomic word stores; they never take a lock
// and never block, so recording is safe from any thread at any point in
// a request's life.  Readers reconstruct the most recent window with a
// per-slot seqlock: a slot whose stamp changed mid-copy is simply
// dropped as torn.  The ring survives a wedged dispatcher — a SIGQUIT
// or fatal-error dump walks the slots directly, no queue involved.
//
// Like the rest of src/obs/, this surface measures and never steers:
// with the log disabled, record() is a single relaxed load; enabled or
// not, no solver or protocol decision ever reads it.
#ifndef LAYRA_OBS_EVENTLOG_H
#define LAYRA_OBS_EVENTLOG_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace layra {
namespace obs {

/// Typed serve-stack events.  Names (eventKindName) are the stable
/// JSON-lines vocabulary; append new kinds at the end.
enum class EventKind : uint8_t {
  RequestStart,   ///< request dequeued for dispatch (detail = kind)
  RequestEnd,     ///< response flushed (value = service+flush ms)
  SlowRequest,    ///< request crossed the --slow-ms bound (value = ms)
  QueueSaturated, ///< enqueue found the queue full (value = capacity)
  CachePressure,  ///< driver run evicted cache entries (value = count)
  Reject,         ///< request failed validation (detail = message)
  DrainBegin,     ///< stop requested; server draining
  DrainEnd,       ///< drain complete; all threads joined
  Dump,           ///< the ring itself was dumped (detail = reason)
  Fatal,          ///< layraFatalError fired (detail = message)
};

const char *eventKindName(EventKind K);

/// Fixed-capacity multi-producer event ring.  All methods are safe to
/// call concurrently; record() is wait-free.
class EventLog {
public:
  /// Inline string payloads are truncating copies: large enough for a
  /// trace id / short diagnostic, small enough that a slot stays cheap
  /// to publish.
  static constexpr std::size_t kTraceBytes = 24;
  static constexpr std::size_t kDetailBytes = 48;
  static constexpr std::size_t kDefaultCapacity = 1024;

  struct Event {
    uint64_t Seq = 0;   ///< global sequence number (allocation order)
    double TsMs = 0;    ///< milliseconds since the log's epoch
    EventKind Kind = EventKind::RequestStart;
    double Value = 0;   ///< kind-specific magnitude (ms, count, ...)
    char Trace[kTraceBytes] = {};   ///< owning trace id ("" = none)
    char Detail[kDetailBytes] = {}; ///< kind-specific short text
  };

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit EventLog(std::size_t Capacity = kDefaultCapacity);
  ~EventLog();

  EventLog(const EventLog &) = delete;
  EventLog &operator=(const EventLog &) = delete;

  /// The process-wide ring used by the serve stack.
  static EventLog &global();

  /// Recording is a no-op while disabled; flipping the switch is how
  /// `layra-serve --event-log` turns the recorder on without taxing
  /// deployments that never asked for it.
  void setEnabled(bool Enabled) {
    EnabledFlag.store(Enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return EnabledFlag.load(std::memory_order_relaxed); }

  std::size_t capacity() const { return Mask + 1; }

  /// Total events accepted since construction (monotone; events older
  /// than capacity() have been overwritten).
  uint64_t recorded() const { return Next.load(std::memory_order_relaxed); }

  /// Append one event.  Trace/Detail may be null; both are truncated to
  /// their slot fields.  Wait-free: one fetch_add plus atomic stores.
  void record(EventKind K, double Value = 0, const char *Trace = nullptr,
              const char *Detail = nullptr);

  /// Copy out the surviving window, oldest first.  Slots a concurrent
  /// writer is mid-publish (or has lapped) are skipped, never blocked
  /// on; the result is always a consistent subsequence.
  std::vector<Event> snapshot() const;

  /// snapshot() serialized as one compact JSON object per line — the
  /// flight-recorder dump format.
  std::string toJsonLines() const;

  /// Drop all events and restart the clock.  NOT safe against
  /// concurrent record(); for tests and quiescent reuse only.
  void reset();

private:
  struct Slot;

  double sinceEpochMs() const;

  std::unique_ptr<Slot[]> Slots;
  std::size_t Mask;
  std::atomic<uint64_t> Next{0};
  std::atomic<bool> EnabledFlag{false};
  std::chrono::steady_clock::time_point Epoch;
};

/// Write Text to Path via a temp file in the same directory followed by
/// rename(2), so a concurrent reader sees either the old contents or
/// the new — never a torn file.  Returns false (and fills *Error when
/// given) on failure; the temp file is cleaned up.
bool writeFileAtomically(const std::string &Path, const std::string &Text,
                         std::string *Error = nullptr);

} // namespace obs
} // namespace layra

#endif // LAYRA_OBS_EVENTLOG_H
