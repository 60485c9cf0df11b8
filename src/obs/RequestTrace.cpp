#include "obs/RequestTrace.h"

#include <cmath>
#include <cstdio>

using namespace layra;
using namespace layra::obs;

bool layra::obs::isValidTraceId(const std::string &Id) {
  if (Id.empty() || Id.size() > 64)
    return false;
  for (char C : Id) {
    bool Ok = (C >= 'A' && C <= 'Z') || (C >= 'a' && C <= 'z') ||
              (C >= '0' && C <= '9') || C == '.' || C == '_' || C == ':' ||
              C == '-';
    if (!Ok)
      return false;
  }
  return true;
}

std::string layra::obs::makeTraceId(uint64_t Salt, uint64_t Seq) {
  // SplitMix64 finalizer over salt ^ sequence: cheap, well distributed,
  // and deterministic for a pinned salt.
  uint64_t Z = Salt ^ (Seq * 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx",
                static_cast<unsigned long long>(Z));
  return std::string(Buf);
}

namespace {

/// Span times keep microsecond precision in JSON; finer digits are
/// clock noise.
double roundMs(double Ms) { return std::round(Ms * 1e3) / 1e3; }

} // namespace

void RequestTrace::begin(std::string Id,
                         std::chrono::steady_clock::time_point E) {
  TraceId = std::move(Id);
  Epoch = E;
  for (unsigned S = 0; S < kNumStages; ++S)
    EndMs[S] = -1;
  JobPhases.clear();
  StartMs[unsigned(Stage::Accept)] = 0;
  Open = int(Stage::Accept);
}

double RequestTrace::sinceBeginMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void RequestTrace::enter(Stage S) {
  if (!active())
    return;
  double Now = sinceBeginMs();
  if (Open >= 0)
    EndMs[Open] = Now;
  StartMs[unsigned(S)] = Now;
  Open = int(S);
}

void RequestTrace::leave() {
  if (Open < 0)
    return;
  EndMs[Open] = sinceBeginMs();
  Open = -1;
}

JsonValue RequestTrace::toJson() const {
  static const char *const StageNames[kNumStages] = {
      "accept", "queue_wait", "dispatch", "driver", "response_flush"};
  JsonValue Doc = JsonValue::object();
  Doc.set("id", TraceId);
  if (ShardId >= 0)
    Doc.set("shard", ShardId);
  JsonValue SpanArr = JsonValue::array();
  for (unsigned S = 0; S < kNumStages; ++S) {
    if (EndMs[S] < 0)
      continue;
    JsonValue E = JsonValue::object();
    E.set("name", StageNames[S]);
    E.set("start_ms", roundMs(StartMs[S]));
    E.set("dur_ms", roundMs(EndMs[S] - StartMs[S]));
    SpanArr.push(std::move(E));
  }
  Doc.set("spans", std::move(SpanArr));
  if (!JobPhases.empty()) {
    JsonValue Jobs = JsonValue::array();
    for (std::size_t J = 0; J < JobPhases.size(); ++J) {
      JsonValue JobDoc = JsonValue::object();
      JobDoc.set("job", static_cast<unsigned long long>(J));
      JsonValue PhaseArr = JsonValue::array();
      for (unsigned P = 0; P < kNumPhases; ++P) {
        if (JobPhases[J].Count[P] == 0)
          continue;
        JsonValue PhaseDoc = JsonValue::object();
        PhaseDoc.set("name", std::string(phaseName(static_cast<Phase>(P))));
        PhaseDoc.set("self_ms", roundMs(JobPhases[J].Ms[P]));
        PhaseDoc.set("count",
                     static_cast<unsigned long long>(JobPhases[J].Count[P]));
        PhaseArr.push(std::move(PhaseDoc));
      }
      JobDoc.set("phases", std::move(PhaseArr));
      Jobs.push(std::move(JobDoc));
    }
    Doc.set("jobs", std::move(Jobs));
  }
  return Doc;
}
