//===- Spans.h - In-memory span recording for the traced run ----*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run times each call into a library layer from the benchmark's
/// own code: a span records the layer's name, start and end, the span that
/// caused it, and the task or request id every span of one unit of work
/// shares.  Spans stay in memory and are written as Chrome-trace JSON when
/// the run ends.  A layer's self time is its duration minus the part its
/// direct children cover.
///
/// A recorder belongs to one thread.  A disabled recorder keeps nothing,
/// which is how the traced run measures its own overhead: the same replay
/// with recording off.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval.  Name points at a string literal.
struct Span {
  const char *Name = "";
  int Parent = -1; ///< Index of the enclosing span; -1 for a root.
  uint64_t Id = 0; ///< Task or request id shared by one unit's spans.
  unsigned Lane = 0; ///< Trace-viewer row: the client connection, or 0.
  double StartUs = 0;
  double EndUs = 0;
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled = true);

  bool enabled() const { return Enabled; }
  /// Opens a span nested in the innermost open one; -1 when disabled.
  int open(const char *Name, uint64_t Id);
  void close(int Index);
  /// Appends a span whose times were measured elsewhere (for example the
  /// server's echoed spans), under \p Parent.
  int add(const char *Name, uint64_t Id, unsigned Lane, int Parent,
          double StartUs, double EndUs);
  /// Microseconds since the recorder was created.
  double nowUs() const;

  const std::vector<Span> &spans() const { return Spans; }
  void clear();

private:
  bool Enabled;
  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span around one call.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, const char *Name, uint64_t Id)
      : Rec(Rec), Index(Rec.open(Name, Id)) {}
  ~ScopedSpan() { Rec.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &Rec;
  int Index;
};

/// Per span: the time its direct children cover, as the union of their
/// intervals clipped to the span, so overlapping children count once.
std::vector<double> childCoverageUs(const std::vector<Span> &Spans);

/// Per span: duration minus childCoverageUs.
std::vector<double> selfTimesUs(const std::vector<Span> &Spans);

/// Self and total time per span name.
struct NameTotals {
  double SelfMs = 0;
  double TotalMs = 0;
  uint64_t Count = 0;
};
std::map<std::string, NameTotals> totalsByName(const std::vector<Span> &Spans);

/// Share of the spans named \p Name covered by their direct children:
/// sum of coverage over sum of duration; 0 when there is no such span.
double coverageOf(const std::vector<Span> &Spans, const std::string &Name);

/// Writes \p Spans as a Chrome-trace ("traceEvents") JSON file.
bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans,
                      std::string *Error);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
