// Request-scoped span tree for the serve path.  Where PR 6's
// TraceCollector aggregates phase spans process-wide, a RequestTrace
// owns the timeline of ONE protocol request: a fixed table of the five
// serve stages (accept -> queue_wait -> dispatch -> driver ->
// response_flush) stamped against a single epoch (the moment the frame
// finished arriving), plus the per-job solver phase totals the server
// moves out of the driver report (JobReport::Phases).  The result
// serializes as the `trace` member echoed in traced responses and as the
// payload of slow-request log lines.
//
// A RequestTrace is single-threaded by construction — it travels with
// its request from the IO thread to one shard worker and back, never
// touched by two threads at once — so it needs no synchronization.
#ifndef LAYRA_OBS_REQUESTTRACE_H
#define LAYRA_OBS_REQUESTTRACE_H

#include "obs/Trace.h"
#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace layra {
namespace obs {

/// True when Id is usable on the wire: 1..64 characters drawn from
/// [A-Za-z0-9._:-].  Anything else is rejected at parse time so trace
/// ids can be embedded in logs and filenames without quoting games.
bool isValidTraceId(const std::string &Id);

/// Deterministic 16-hex-digit id from (Salt, Seq) via a SplitMix64
/// mix.  The server salts with its start time so ids from successive
/// runs don't collide; tests pin the salt for reproducibility.
std::string makeTraceId(uint64_t Salt, uint64_t Seq);

class RequestTrace {
public:
  /// The serve-path stages in timeline order, which is also the order
  /// their spans serialize in.
  enum class Stage : unsigned { Accept, QueueWait, Dispatch, Driver,
                                ResponseFlush };
  static constexpr unsigned kNumStages = 5;

  /// Arm the trace and enter Accept at \p Epoch; the server passes the
  /// frame-arrival time so queue wait is visible.
  void begin(std::string Id,
             std::chrono::steady_clock::time_point Epoch);

  bool active() const { return !TraceId.empty(); }
  const std::string &id() const { return TraceId; }

  /// Milliseconds elapsed since begin()'s epoch.
  double sinceBeginMs() const;

  /// Closes the open stage, if any, and opens \p S, both at one clock
  /// reading, so consecutive stages tile the timeline.  No-op (and no
  /// clock read) on an inactive trace.
  void enter(Stage S);
  /// Closes the open stage now; no-op when none is open.
  void leave();

  /// Whether the client asked for the span tree in its response (the
  /// request carried a `trace` field).  Server-internal traces — armed
  /// only for the slow log or the event ring — leave this false so
  /// response bytes stay untouched.
  bool Echo = false;

  /// Shard that executed the request (sharded serving core); negative
  /// means "not shard-routed" (ping/stats/parse errors handled on the IO
  /// loop) and the tag is omitted from toJson().
  int ShardId = -1;

  /// Per-job solver phase totals, one per job in job order, moved here
  /// from the driver report after a traced run.
  std::vector<PhaseTotals> JobPhases;

  /// Full span tree: {"id", "shard"?, "spans": [...], "jobs"?: [...]}.
  /// Only closed stages become spans; phases with zero hits are omitted
  /// per job.
  JsonValue toJson() const;

private:
  std::string TraceId;
  std::chrono::steady_clock::time_point Epoch;
  /// Epoch offsets per stage; a negative end marks a stage never
  /// closed, which serializes no span.
  double StartMs[kNumStages] = {};
  double EndMs[kNumStages] = {-1, -1, -1, -1, -1};
  int Open = -1;
};

} // namespace obs
} // namespace layra

#endif // LAYRA_OBS_REQUESTTRACE_H
