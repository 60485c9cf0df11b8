//===- BenchLogicTest.cpp - Tests of the benchmark's own logic -------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Checker.h"
#include "Replay.h"
#include "Spans.h"
#include "Stats.h"

#include "ir/SsaBuilder.h"
#include "suites/Suites.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace layra;
using namespace perfbench;

namespace {

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(double(I));
  return V;
}

TEST(PercentileTest, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(nearestRank(1000, 0.99), 990u);
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(percentileReportable(1000, 0.99));
  EXPECT_FALSE(percentileReportable(999, 0.99));
  EXPECT_DOUBLE_EQ(percentile(oneTo(1000), 0.99), 990);
  EXPECT_TRUE(std::isnan(percentile(oneTo(999), 0.99)));
  // A median needs 20 samples: 10 lie beyond the 10th.
  EXPECT_DOUBLE_EQ(percentile(oneTo(20), 0.50), 10);
  EXPECT_TRUE(std::isnan(percentile(oneTo(19), 0.50)));
  EXPECT_TRUE(std::isnan(percentile({}, 0.50)));
}

TEST(PercentileTest, MedianOfRepeats) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

Span span(const char *Name, int Parent, double Start, double End) {
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.StartUs = Start;
  S.EndUs = End;
  return S;
}

TEST(SelfTimeTest, NestedAndAdjacentChildren) {
  std::vector<Span> Spans = {
      span("root", -1, 0, 100),
      span("a", 0, 10, 40),   // Adjacent to b.
      span("inner", 1, 20, 30), // Nested in a: not subtracted from root.
      span("b", 0, 40, 70),
  };
  std::vector<double> Self = selfTimesUs(Spans);
  EXPECT_DOUBLE_EQ(Self[0], 40);
  EXPECT_DOUBLE_EQ(Self[1], 20);
  EXPECT_DOUBLE_EQ(Self[2], 10);
  EXPECT_DOUBLE_EQ(Self[3], 30);
  EXPECT_DOUBLE_EQ(coverageOf(Spans, "root"), 0.6);
  auto Totals = totalsByName(Spans);
  EXPECT_DOUBLE_EQ(Totals["root"].SelfMs, 0.040);
  EXPECT_DOUBLE_EQ(Totals["root"].TotalMs, 0.100);
  EXPECT_EQ(Totals["a"].Count, 1u);
}

TEST(SelfTimeTest, OverlappingAndOverhangingChildrenCountOnce) {
  std::vector<Span> Spans = {
      span("root", -1, 0, 100),
      span("a", 0, 0, 50),
      span("b", 0, 30, 80),   // Overlaps a.
      span("c", 0, 90, 120),  // Ends after its parent.
  };
  EXPECT_DOUBLE_EQ(selfTimesUs(Spans)[0], 10);
}

TEST(SelfTimeTest, RecorderNestsAndDisabledRecorderKeepsNothing) {
  SpanRecorder Rec(true);
  {
    ScopedSpan Outer(Rec, "outer", 7);
    ScopedSpan Inner(Rec, "inner", 7);
  }
  ASSERT_EQ(Rec.spans().size(), 2u);
  EXPECT_EQ(Rec.spans()[1].Parent, 0);
  EXPECT_EQ(Rec.spans()[1].Id, 7u);
  EXPECT_LE(Rec.spans()[1].EndUs, Rec.spans()[0].EndUs);
  SpanRecorder Off(false);
  { ScopedSpan S(Off, "outer", 1); }
  EXPECT_TRUE(Off.spans().empty());
}

TEST(TallyTest, ErrorRateCountsEveryFailure) {
  Tally T;
  EXPECT_EQ(T.errorRate(), 0);
  T.pass();
  T.check("");
  T.check("wrong bytes");
  T.fail("refused");
  EXPECT_EQ(T.attempted(), 4u);
  EXPECT_EQ(T.failed(), 2u);
  EXPECT_DOUBLE_EQ(T.errorRate(), 0.5);
  ASSERT_EQ(T.reasons().size(), 2u);
  EXPECT_EQ(T.reasons()[0], "wrong bytes");
  for (int I = 0; I < 20; ++I)
    T.fail("again");
  EXPECT_EQ(T.failed(), 22u);
  EXPECT_EQ(T.reasons().size(), 8u); // Only the first few are kept.
}

/// entry: a = op; b = op; c = op a, b; ret c
Function straightLine() {
  Function F("t");
  BlockId B = F.makeBlock("entry");
  ValueId A = F.makeValue("a"), Bv = F.makeValue("b"), C = F.makeValue("c");
  auto add = [&](Opcode Op, std::vector<ValueId> Defs,
                 std::vector<ValueId> Uses) {
    Instruction I;
    I.Op = Op;
    I.Defs = std::move(Defs);
    I.Uses = std::move(Uses);
    F.block(B).Instrs.push_back(std::move(I));
  };
  add(Opcode::Op, {A}, {});
  add(Opcode::Op, {Bv}, {});
  add(Opcode::Op, {C}, {A, Bv});
  add(Opcode::Return, {}, {C});
  return F;
}

Assignment assign(std::vector<unsigned> Regs) {
  Assignment A;
  A.RegisterOf = std::move(Regs);
  A.Success = true;
  return A;
}

TEST(CheckerTest, PlantedConflictingAssignmentIsCaught) {
  Function F = straightLine();
  // c may reuse a dying operand's register; a and b are live together.
  EXPECT_EQ(checkAssignment(F, assign({0, 1, 0}), {2}, true), "");
  std::string Error = checkAssignment(F, assign({0, 0, 1}), {2}, true);
  EXPECT_NE(Error.find("share register 0"), std::string::npos) << Error;
  EXPECT_NE(checkAssignment(F, assign({0, 2, 0}), {2}, true), "");
  EXPECT_NE(checkAssignment(F, assign({0, 1, Assignment::kNoRegister}), {2},
                            true),
            "");
}

TEST(CheckerTest, PipelineAssignmentsPassAndACollisionIsCaught) {
  Suite S = makeSuite("eembc");
  const std::vector<unsigned> Budgets = {6};
  unsigned Collided = 0;
  for (const Function &Raw : S.Programs[0].Functions) {
    SsaConversion Ssa = convertToSsa(Raw);
    PipelineResult R = runAllocationPipeline(Ssa.Ssa, ST231, Budgets);
    ASSERT_EQ(checkAssignment(R.Rewritten, R.Regs, Budgets, R.Fits), "")
        << Raw.name();
    // Give one register's holders the same register as another holder
    // whose live range overlaps: some pair in a 6-register function does.
    Assignment Bad = R.Regs;
    for (unsigned &Reg : Bad.RegisterOf)
      if (Reg == 1)
        Reg = 0;
    if (!checkAssignment(R.Rewritten, Bad, Budgets, R.Fits).empty())
      ++Collided;
  }
  EXPECT_GT(Collided, 0u);
}

TEST(CheckerTest, ReplayEqualsRunAllocationPipeline) {
  Suite S = makeSuite("spec2000int");
  SolverWorkspace WS;
  SpanRecorder Rec(true);
  LayerCounts Counts;
  for (unsigned Regs : {4u, 12u})
    for (const Function &Raw : S.Programs[1].Functions) {
      std::vector<unsigned> Budgets = {Regs};
      SsaConversion Ssa = convertToSsa(Raw);
      PipelineResult Want = runAllocationPipeline(Ssa.Ssa, ST231, Budgets);
      PipelineResult Got = replayPipeline(Ssa.Ssa, ST231, Budgets,
                                          PipelineOptions(), WS, Rec, 0,
                                          Counts);
      EXPECT_EQ(diffResults(ResultDigest::of(Got), ResultDigest::of(Want)),
                "")
          << Raw.name() << " at " << Regs;
    }
  EXPECT_GT(Counts.Builds, Counts.AllocateCalls / 2);
  EXPECT_GE(coverageOf(Rec.spans(), span::Pipeline), 0.9);
}

TEST(CheckerTest, PlantedResponseByteFlipIsCaught) {
  const std::string Expected = "{\n  \"schema\": \"x\",\n  \"jobs\": []\n}\n";
  EXPECT_EQ(checkResponse(Expected, Expected), "");
  std::string Flipped = Expected;
  Flipped[14] ^= 1;
  EXPECT_NE(checkResponse(Flipped, Expected), "");
  const std::string Traced =
      "{\n  \"schema\": \"x\",\n  \"jobs\": [],\n  \"trace\": {\n    "
      "\"id\": \"t\"\n  }\n}\n";
  EXPECT_EQ(stripTraceEcho(Traced), Expected);
  EXPECT_EQ(checkResponse(Traced, Expected), "");
  std::string TracedFlip = Traced;
  TracedFlip[14] ^= 1;
  EXPECT_NE(checkResponse(TracedFlip, Expected), "");
}

} // namespace
