//===- tests/core/DeltaTest.cpp - Warm-start delta allocation tests -------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The delta-solving contract (core/Delta.h): the compatibility predicate
/// admits exactly the edits that provably preserve interference structure,
/// buildDeltaProblem() reproduces a from-scratch buildSsaProblem() bit for
/// bit, the pipeline's warm start changes no output bytes, and the
/// BatchDriver's base registry counts hits/fallbacks and evicts by LRU.
///
//===----------------------------------------------------------------------===//

#include "core/Delta.h"

#include "alloc/Pipeline.h"
#include "core/ProblemBuilder.h"
#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"

#include <gtest/gtest.h>

using namespace layra;

namespace {

/// A deterministic strict-SSA function with loops (nonuniform block
/// frequencies, so frequency edits actually move spill costs).
Function makeSsa(uint64_t Seed = 71) {
  Rng R(Seed);
  ProgramGenOptions Opt;
  return convertToSsa(generateFunction(R, Opt)).Ssa;
}

Suite singleFunctionSuite(const Function &F) {
  Suite S;
  S.Name = "delta-test";
  S.Programs.push_back({"prog", {F}});
  return S;
}

std::vector<BatchJob> singleJob(const Suite &S) {
  BatchJob Job;
  Job.SuiteName = S.Name;
  Job.SuiteData = &S;
  Job.Target = ST231;
  Job.NumRegisters = 4;
  return {Job};
}

/// Timing-free, task-level report bytes -- the equality the server's
/// responses are built from.
std::string reportBytes(const DriverReport &Report) {
  return driverReportToJson(Report, /*IncludeTiming=*/false,
                            /*IncludeTasks=*/true)
      .dump(2);
}

} // namespace

TEST(DeltaTest, IdenticalResubmissionIsCompatibleWithNoChangedBlocks) {
  Function Base = makeSsa();
  FunctionDelta D = computeFunctionDelta(Base, Base);
  EXPECT_TRUE(D.Compatible);
  EXPECT_TRUE(D.ChangedBlocks.empty());
  EXPECT_TRUE(D.Reason.empty());
}

TEST(DeltaTest, FrequencyEditIsCompatibleAndScopedToTheBlock) {
  Function Base = makeSsa();
  Function New = Base;
  New.block(0).Frequency += 9;
  FunctionDelta D = computeFunctionDelta(Base, New);
  EXPECT_TRUE(D.Compatible);
  ASSERT_EQ(D.ChangedBlocks.size(), 1u);
  EXPECT_EQ(D.ChangedBlocks[0], 0u);
}

TEST(DeltaTest, StructuralEditsAreRejectedWithAReason) {
  Function Base = makeSsa();

  // A use-list edit: the entry terminator gains a use of an entry value.
  Function ExtraUse = Base;
  {
    BasicBlock &Entry = ExtraUse.block(0);
    ASSERT_FALSE(Entry.Instrs.empty());
    ASSERT_FALSE(Entry.Instrs.front().Defs.empty());
    Entry.Instrs.back().Uses.push_back(Entry.Instrs.front().Defs[0]);
  }
  FunctionDelta D1 = computeFunctionDelta(Base, ExtraUse);
  EXPECT_FALSE(D1.Compatible);
  EXPECT_FALSE(D1.Reason.empty());

  // An added instruction changes the block's def/use shape.
  Function ExtraInstr = Base;
  {
    Instruction Nop;
    Nop.Op = Opcode::Op;
    Nop.Defs = {ExtraInstr.makeValue("extra")};
    BasicBlock &Entry = ExtraInstr.block(0);
    Entry.Instrs.insert(Entry.Instrs.begin(), Nop);
  }
  EXPECT_FALSE(computeFunctionDelta(Base, ExtraInstr).Compatible);

  // A register-class change alters interference even with equal CFGs.
  Function NewClass = Base;
  NewClass.setValueClass(0, 1);
  EXPECT_FALSE(computeFunctionDelta(Base, NewClass).Compatible);
}

TEST(DeltaTest, DeltaProblemMatchesFreshBuildAfterFrequencyEdit) {
  Function BaseF = makeSsa();
  std::vector<unsigned> Budgets{4};

  DeltaBase Base;
  Base.Ssa = BaseF;
  ProblemBuildArtifacts Art;
  Base.Problem = buildSsaProblem(BaseF, ST231, Budgets, nullptr, &Art);
  Base.Live = std::move(Art.Live);
  Base.Costs = std::move(Art.Costs);

  Function New = BaseF;
  New.block(0).Frequency += 9;

  AllocationProblem Out;
  bool ExactRound0 = true;
  ASSERT_TRUE(buildDeltaProblem(Base, New, ST231, Budgets, Out, ExactRound0));
  // Costs moved with the frequencies, so round 0 must be re-allocated.
  EXPECT_FALSE(ExactRound0);
  EXPECT_EQ(hashProblem(Out), hashProblem(buildSsaProblem(New, ST231, Budgets)));

  // The byte-identical resubmission reuses round 0 outright.
  AllocationProblem Same;
  ASSERT_TRUE(
      buildDeltaProblem(Base, BaseF, ST231, Budgets, Same, ExactRound0));
  EXPECT_TRUE(ExactRound0);
  EXPECT_EQ(hashProblem(Same), hashProblem(Base.Problem));

  // Structural incompatibility leaves the output untouched.
  Function Bad = BaseF;
  Bad.block(0).Instrs.back().Uses.push_back(0);
  EXPECT_FALSE(buildDeltaProblem(Base, Bad, ST231, Budgets, Out, ExactRound0));
}

TEST(DeltaTest, PipelineWarmStartIsByteIdenticalToFullRun) {
  Function BaseF = makeSsa();
  std::vector<unsigned> Budgets{4};
  PipelineOptions Options;

  DeltaBase Captured;
  PipelineDeltaContext Capture;
  Capture.Capture = &Captured;
  PipelineResult BaseRun =
      runAllocationPipeline(BaseF, ST231, Budgets, Options, nullptr, &Capture);
  ASSERT_TRUE(Captured.HasRound0);
  EXPECT_EQ(Captured.AllocatorName, Options.AllocatorName);

  for (unsigned Bump : {0u, 9u}) {
    Function New = BaseF;
    New.block(0).Frequency += Bump;

    PipelineDeltaContext Warm;
    Warm.Base = &Captured;
    PipelineResult Delta =
        runAllocationPipeline(New, ST231, Budgets, Options, nullptr, &Warm);
    EXPECT_TRUE(Warm.UsedDelta) << "bump=" << Bump;
    // The unedited resubmission reuses the captured round-0 allocation.
    EXPECT_EQ(Warm.WarmStarted, Bump == 0) << "bump=" << Bump;

    PipelineResult Full = runAllocationPipeline(New, ST231, Budgets, Options);
    EXPECT_EQ(Delta.Rewritten.toString(), Full.Rewritten.toString());
    EXPECT_EQ(Delta.TotalSpillCost, Full.TotalSpillCost);
    EXPECT_EQ(Delta.Rounds, Full.Rounds);
    EXPECT_EQ(Delta.FinalMaxLive, Full.FinalMaxLive);
    EXPECT_EQ(Delta.Fits, Full.Fits);
  }
  (void)BaseRun;
}

TEST(DeltaTest, IntervalsFollowTheConsumingAllocatorOnEveryBranch) {
  // Pipeline builds carry live intervals only for allocators that read
  // them, so a base captured under bfpl has none.  Each delta branch --
  // identical resubmission, budget-only change, cost change -- must yield
  // exactly the fresh build under the same interval rule.
  Function BaseF = makeSsa();
  DeltaBase Base;
  Base.Ssa = BaseF;
  ProblemBuildArtifacts Art;
  Base.Problem = buildSsaProblem(BaseF, ST231, {4}, nullptr, &Art,
                                 /*WithIntervals=*/false);
  ASSERT_FALSE(Base.Problem.Intervals);
  Base.Live = std::move(Art.Live);
  Base.Costs = std::move(Art.Costs);

  for (bool WithIntervals : {false, true})
    for (auto [Bump, Regs] : {std::pair{0u, 4u}, {0u, 6u}, {9u, 4u}}) {
      Function New = BaseF;
      New.block(0).Frequency += Bump;
      AllocationProblem Out;
      bool ExactRound0 = false;
      ASSERT_TRUE(buildDeltaProblem(Base, New, ST231, {Regs}, Out,
                                    ExactRound0, WithIntervals));
      EXPECT_EQ(Out.Intervals.has_value(), WithIntervals);
      EXPECT_EQ(hashProblem(Out),
                hashProblem(buildSsaProblem(New, ST231, {Regs}, nullptr,
                                            nullptr, WithIntervals)))
          << "bump=" << Bump << " regs=" << Regs
          << " intervals=" << WithIntervals;
    }
}

TEST(DeltaTest, BaseCapturedUnderBfplServesLinearScanDeltas) {
  // End to end: the bfpl base lacks intervals, yet `ls` deltas against it
  // must solve (not abort the shard) and report byte-equal to fresh ls
  // solves on every delta branch.
  Function BaseF = makeSsa();
  const uint64_t Key = 0x5eed;
  Suite BaseS = singleFunctionSuite(BaseF);
  std::vector<BatchJob> BaseJobs = singleJob(BaseS);
  BaseJobs[0].RetainKey = Key;
  BatchDriver Warm(1);
  Warm.run(BaseJobs);
  ASSERT_TRUE(Warm.hasBase(Key));

  unsigned Deltas = 0;
  for (auto [Bump, Regs] : {std::pair{0u, 4u}, {0u, 6u}, {9u, 4u}}) {
    Function New = BaseF;
    New.block(0).Frequency += Bump;
    Suite NewS = singleFunctionSuite(New);
    std::vector<BatchJob> Jobs = singleJob(NewS);
    Jobs[0].NumRegisters = Regs;
    Jobs[0].Options.AllocatorName = "ls";
    std::vector<BatchJob> DeltaJobs = Jobs;
    DeltaJobs[0].BaseKey = Key;
    std::string DeltaBytes =
        reportBytes(Warm.run(DeltaJobs, /*CacheTransparent=*/true));
    EXPECT_EQ(Warm.deltaCounters().Hits, ++Deltas);
    BatchDriver Fresh(1);
    EXPECT_EQ(DeltaBytes, reportBytes(Fresh.run(Jobs)))
        << "bump=" << Bump << " regs=" << Regs;
  }
  EXPECT_EQ(Warm.deltaCounters().Fallbacks, 0u);
}

TEST(DeltaTest, DriverCountsHitsAndFallbacksAndReportsStayByteEqual) {
  Function BaseF = makeSsa();
  const uint64_t Key = 0x1234;

  Suite BaseS = singleFunctionSuite(BaseF);
  std::vector<BatchJob> BaseJobs = singleJob(BaseS);
  BaseJobs[0].RetainKey = Key;

  BatchDriver Warm(1);
  Warm.run(BaseJobs);
  ASSERT_TRUE(Warm.hasBase(Key));
  EXPECT_EQ(Warm.deltaCounters().Bases, 1u);

  // Compatible edit: solved through the delta path, bytes unchanged.
  Function Bumped = BaseF;
  Bumped.block(0).Frequency += 9;
  Suite BumpS = singleFunctionSuite(Bumped);
  std::vector<BatchJob> BumpJobs = singleJob(BumpS);
  BumpJobs[0].BaseKey = Key;
  std::string DeltaBytes =
      reportBytes(Warm.run(BumpJobs, /*CacheTransparent=*/true));
  EXPECT_EQ(Warm.deltaCounters().Hits, 1u);
  EXPECT_EQ(Warm.deltaCounters().Fallbacks, 0u);

  BatchDriver Fresh(1);
  EXPECT_EQ(DeltaBytes, reportBytes(Fresh.run(singleJob(BumpS), true)));

  // Structural edit: full solve, counted as a fallback, still byte-equal.
  Function Edited = BaseF;
  {
    BasicBlock &Entry = Edited.block(0);
    Entry.Instrs.back().Uses.push_back(Entry.Instrs.front().Defs[0]);
  }
  Suite EditS = singleFunctionSuite(Edited);
  std::vector<BatchJob> EditJobs = singleJob(EditS);
  EditJobs[0].BaseKey = Key;
  DeltaBytes = reportBytes(Warm.run(EditJobs, /*CacheTransparent=*/true));
  EXPECT_EQ(Warm.deltaCounters().Hits, 1u);
  EXPECT_EQ(Warm.deltaCounters().Fallbacks, 1u);

  BatchDriver Fresh2(1);
  EXPECT_EQ(DeltaBytes, reportBytes(Fresh2.run(singleJob(EditS), true)));
}

TEST(DeltaTest, BaseRegistryEvictsByLruUnderItsCapacityBound) {
  Function F1 = makeSsa(71), F2 = makeSsa(72);
  Suite S1 = singleFunctionSuite(F1), S2 = singleFunctionSuite(F2);

  BatchDriver Driver(1);
  Driver.setBaseRegistryCapacity(1);
  EXPECT_EQ(Driver.deltaCounters().Capacity, 1u);

  std::vector<BatchJob> J1 = singleJob(S1);
  J1[0].RetainKey = 0xA;
  Driver.run(J1);
  ASSERT_TRUE(Driver.hasBase(0xA));

  // Registering a second base under capacity 1 evicts the first.
  std::vector<BatchJob> J2 = singleJob(S2);
  J2[0].RetainKey = 0xB;
  Driver.run(J2);
  EXPECT_FALSE(Driver.hasBase(0xA));
  EXPECT_TRUE(Driver.hasBase(0xB));
  EXPECT_EQ(Driver.deltaCounters().Bases, 1u);

  // A delta request against the evicted base falls back (and still solves).
  Function Bumped = F1;
  Bumped.block(0).Frequency += 9;
  Suite BumpS = singleFunctionSuite(Bumped);
  std::vector<BatchJob> J3 = singleJob(BumpS);
  J3[0].BaseKey = 0xA;
  DriverReport R = Driver.run(J3);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(Driver.deltaCounters().Fallbacks, 1u);
  EXPECT_EQ(Driver.deltaCounters().Hits, 0u);
}
