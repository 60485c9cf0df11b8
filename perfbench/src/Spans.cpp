//===- Spans.cpp - In-memory span recording for the traced run -------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

using namespace perfbench;

SpanRecorder::SpanRecorder(bool Enabled)
    : Enabled(Enabled), Epoch(std::chrono::steady_clock::now()) {}

double SpanRecorder::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

int SpanRecorder::open(const char *Name, uint64_t Id) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Id = Id;
  S.StartUs = nowUs();
  Spans.push_back(S);
  Open.push_back(int(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::close(int Index) {
  if (Index < 0)
    return;
  Spans[size_t(Index)].EndUs = nowUs();
  // Spans close innermost-first (ScopedSpan), so Index is on top.
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

int SpanRecorder::add(const char *Name, uint64_t Id, unsigned Lane,
                      int Parent, double StartUs, double EndUs) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Id = Id;
  S.Lane = Lane;
  S.StartUs = StartUs;
  S.EndUs = EndUs;
  Spans.push_back(S);
  return int(Spans.size() - 1);
}

void SpanRecorder::clear() {
  Spans.clear();
  Open.clear();
}

std::vector<double> perfbench::childCoverageUs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && size_t(S.Parent) < Spans.size())
      Children[size_t(S.Parent)].push_back({S.StartUs, S.EndUs});
  std::vector<double> Covered(Spans.size(), 0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto &Kids = Children[I];
    if (Kids.empty())
      continue;
    std::sort(Kids.begin(), Kids.end());
    double Lo = Spans[I].StartUs, Hi = Spans[I].EndUs;
    double Sum = 0, RunStart = 0, RunEnd = 0;
    bool InRun = false;
    for (auto [Start, End] : Kids) {
      Start = std::max(Start, Lo);
      End = std::min(End, Hi);
      if (End <= Start)
        continue;
      if (InRun && Start <= RunEnd) {
        RunEnd = std::max(RunEnd, End);
        continue;
      }
      if (InRun)
        Sum += RunEnd - RunStart;
      RunStart = Start;
      RunEnd = End;
      InRun = true;
    }
    if (InRun)
      Sum += RunEnd - RunStart;
    Covered[I] = Sum;
  }
  return Covered;
}

std::vector<double> perfbench::selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<double> Self = childCoverageUs(Spans);
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = std::max(0.0, Spans[I].EndUs - Spans[I].StartUs - Self[I]);
  return Self;
}

std::map<std::string, NameTotals>
perfbench::totalsByName(const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimesUs(Spans);
  std::map<std::string, NameTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    NameTotals &T = Out[Spans[I].Name];
    T.SelfMs += Self[I] / 1e3;
    T.TotalMs += (Spans[I].EndUs - Spans[I].StartUs) / 1e3;
    ++T.Count;
  }
  return Out;
}

double perfbench::coverageOf(const std::vector<Span> &Spans,
                             const std::string &Name) {
  std::vector<double> Covered = childCoverageUs(Spans);
  double Dur = 0, Cov = 0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Name == Spans[I].Name) {
      Dur += Spans[I].EndUs - Spans[I].StartUs;
      Cov += Covered[I];
    }
  return Dur > 0 ? Cov / Dur : 0.0;
}

bool perfbench::writeChromeTrace(const std::string &Path,
                                 const std::vector<Span> &Spans,
                                 std::string *Error) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    *Error = "cannot write " + Path + ": " + std::strerror(errno);
    return false;
  }
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", Out);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"span\": %zu, \"parent\": %d}}\n",
                 I ? "," : "", layra::JsonValue::escape(S.Name).c_str(),
                 S.Lane + 1, S.StartUs, S.EndUs - S.StartUs,
                 static_cast<unsigned long long>(S.Id), I, S.Parent);
  }
  std::fputs("]}\n", Out);
  bool Ok = std::fclose(Out) == 0;
  if (!Ok)
    *Error = "cannot finish " + Path;
  return Ok;
}
