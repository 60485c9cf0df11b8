//===- tests/obs/RequestTraceTest.cpp - Request trace tests ---------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-scoped span trees (obs/RequestTrace.h): trace id generation
/// and wire validation, the stage table, per-job phases, and the JSON
/// shapes echoed in traced responses and slow-request lines.
///
//===----------------------------------------------------------------------===//

#include "obs/RequestTrace.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>

using namespace layra;
using obs::RequestTrace;

TEST(TraceIdTest, MakeTraceIdIsDeterministicHex) {
  std::string A = obs::makeTraceId(42, 1);
  std::string B = obs::makeTraceId(42, 1);
  EXPECT_EQ(A, B);
  ASSERT_EQ(A.size(), 16u);
  for (char C : A)
    EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')) << A;
}

TEST(TraceIdTest, DistinctInputsGiveDistinctIds) {
  std::set<std::string> Ids;
  for (uint64_t Seq = 1; Seq <= 100; ++Seq)
    Ids.insert(obs::makeTraceId(7, Seq));
  for (uint64_t Salt = 0; Salt < 100; ++Salt)
    Ids.insert(obs::makeTraceId(Salt, 1));
  // (7, 1) appears in both loops: exactly one expected duplicate.
  EXPECT_EQ(Ids.size(), 199u);
}

TEST(TraceIdTest, ValidationAcceptsWireSafeIds) {
  EXPECT_TRUE(obs::isValidTraceId("a"));
  EXPECT_TRUE(obs::isValidTraceId("lg0-17"));
  EXPECT_TRUE(obs::isValidTraceId("svc:prod.us-2_req"));
  EXPECT_TRUE(obs::isValidTraceId(std::string(64, 'x')));
}

TEST(TraceIdTest, ValidationRejectsEmptyLongAndUnsafe) {
  EXPECT_FALSE(obs::isValidTraceId(""));
  EXPECT_FALSE(obs::isValidTraceId(std::string(65, 'x')));
  EXPECT_FALSE(obs::isValidTraceId("has space"));
  EXPECT_FALSE(obs::isValidTraceId("quote\"inject"));
  EXPECT_FALSE(obs::isValidTraceId("new\nline"));
  EXPECT_FALSE(obs::isValidTraceId("slash/path"));
}

TEST(RequestTraceTest, InactiveUntilBegun) {
  RequestTrace Trace;
  EXPECT_FALSE(Trace.active());
  Trace.begin("req-1", std::chrono::steady_clock::now());
  EXPECT_TRUE(Trace.active());
  EXPECT_EQ(Trace.id(), "req-1");
}

namespace {

/// The "spans" member of \p Doc.
const JsonValue &spansOf(const JsonValue &Doc) {
  const JsonValue *Spans = Doc.find("spans");
  EXPECT_NE(Spans, nullptr);
  static const JsonValue Empty = JsonValue::array();
  return Spans ? *Spans : Empty;
}

} // namespace

TEST(RequestTraceTest, StagesTileTheTimelineInStageOrder) {
  using Stage = RequestTrace::Stage;
  RequestTrace Trace;
  Trace.begin("req-json", std::chrono::steady_clock::now() -
                              std::chrono::milliseconds(2));
  Trace.enter(Stage::QueueWait);
  Trace.enter(Stage::Dispatch);
  Trace.leave();
  Trace.leave(); // Nothing open: a no-op.

  JsonValue Doc = Trace.toJson();
  ASSERT_NE(Doc.find("id"), nullptr);
  EXPECT_EQ(Doc.find("id")->stringValue(), "req-json");
  EXPECT_EQ(Doc.find("shard"), nullptr); // Not shard-routed.
  const JsonValue &Spans = spansOf(Doc);
  ASSERT_EQ(Spans.size(), 3u);
  EXPECT_EQ(Spans.at(0).find("name")->stringValue(), "accept");
  EXPECT_EQ(Spans.at(1).find("name")->stringValue(), "queue_wait");
  EXPECT_EQ(Spans.at(2).find("name")->stringValue(), "dispatch");
  EXPECT_EQ(Spans.at(0).find("start_ms")->numberValue(), 0.0);
  EXPECT_GE(Spans.at(0).find("dur_ms")->numberValue(), 2.0);
  // Each stage opens at the clock reading that closed the previous one.
  for (unsigned I = 1; I < Spans.size(); ++I) {
    const JsonValue &Prev = Spans.at(I - 1);
    EXPECT_NEAR(Spans.at(I).find("start_ms")->numberValue(),
                Prev.find("start_ms")->numberValue() +
                    Prev.find("dur_ms")->numberValue(),
                0.0025);
  }
  // No jobs attached: the member is omitted entirely.
  EXPECT_EQ(Doc.find("jobs"), nullptr);
}

TEST(RequestTraceTest, OpenStagesAreNotSpansAndSerializeInStageOrder) {
  using Stage = RequestTrace::Stage;
  RequestTrace Trace;
  Trace.begin("req-order", std::chrono::steady_clock::now());
  Trace.ShardId = 3;
  Trace.enter(Stage::Driver); // Skips queue_wait and dispatch.
  Trace.leave();
  Trace.enter(Stage::ResponseFlush); // Still open.
  JsonValue Doc = Trace.toJson();
  ASSERT_NE(Doc.find("shard"), nullptr);
  EXPECT_EQ(Doc.find("shard")->numberValue(), 3.0);
  const JsonValue &Spans = spansOf(Doc);
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans.at(0).find("name")->stringValue(), "accept");
  EXPECT_EQ(Spans.at(1).find("name")->stringValue(), "driver");

  Trace.leave();
  ASSERT_EQ(spansOf(Trace.toJson()).size(), 3u);
  EXPECT_EQ(spansOf(Trace.toJson()).at(2).find("name")->stringValue(),
            "response_flush");
}

TEST(RequestTraceTest, InactiveTraceRecordsNothing) {
  RequestTrace Trace;
  Trace.enter(RequestTrace::Stage::Dispatch);
  Trace.leave();
  EXPECT_FALSE(Trace.active());
  EXPECT_EQ(spansOf(Trace.toJson()).size(), 0u);
}

TEST(RequestTraceTest, JobPhasesOmitZeroCountPhases) {
  RequestTrace Trace;
  Trace.begin("req-phases", std::chrono::steady_clock::now());

  Trace.JobPhases.resize(2);
  Trace.JobPhases[0].Ms[size_t(Phase::Liveness)] = 3.5;
  Trace.JobPhases[0].Count[size_t(Phase::Liveness)] = 7;
  // Job 1 never ran anything: its phase list must come out empty.

  JsonValue Doc = Trace.toJson();
  const JsonValue *Jobs = Doc.find("jobs");
  ASSERT_NE(Jobs, nullptr);
  ASSERT_EQ(Jobs->size(), 2u);

  const JsonValue *P0 = Jobs->at(0).find("phases");
  ASSERT_NE(P0, nullptr);
  ASSERT_EQ(P0->size(), 1u);
  EXPECT_EQ(P0->at(0).find("name")->stringValue(),
            phaseName(Phase::Liveness));
  EXPECT_EQ(P0->at(0).find("self_ms")->numberValue(), 3.5);
  EXPECT_EQ(P0->at(0).find("count")->numberValue(), 7.0);

  const JsonValue *P1 = Jobs->at(1).find("phases");
  ASSERT_NE(P1, nullptr);
  EXPECT_EQ(P1->size(), 0u);

  // Re-arming starts a fresh record.
  Trace.begin("req-again", std::chrono::steady_clock::now());
  EXPECT_EQ(Trace.toJson().find("jobs"), nullptr);
}

TEST(RequestTraceTest, SinceBeginIsMonotone) {
  RequestTrace Trace;
  auto Epoch = std::chrono::steady_clock::now() -
               std::chrono::milliseconds(5);
  Trace.begin("req-mono", Epoch);
  double A = Trace.sinceBeginMs();
  double B = Trace.sinceBeginMs();
  EXPECT_GE(A, 5.0);
  EXPECT_GE(B, A);
}
