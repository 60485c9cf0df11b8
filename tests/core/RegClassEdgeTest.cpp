//===- tests/core/RegClassEdgeTest.cpp - Multi-class edge cases -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-class edge cases the register-class refactor (PR 4) left
/// untested: projecting a class with no members, `--class-regs`
/// overriding class 0 (the override must win over the swept --regs
/// value, end to end through the batch driver), and budgets exceeding a
/// class's architectural register count (budgets are solver inputs, not
/// hardware claims -- an oversized budget must behave exactly like "no
/// pressure in this file").
///
//===----------------------------------------------------------------------===//

#include "alloc/OptimalBnB.h"
#include "core/ProblemBuilder.h"
#include "driver/BatchDriver.h"
#include "graph/Graph.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace layra;

namespace {

/// A two-class SSA function (armv7-vfp shaped).
Function makeMixedSsa(uint64_t Seed) {
  Rng R(Seed);
  ProgramGenOptions Opt;
  Opt.NumVars = 10;
  Opt.MaxBlocks = 14;
  Opt.MaxNesting = 2;
  Opt.ExprsPerBlockMin = 1;
  Opt.ExprsPerBlockMax = 4;
  Opt.NumClasses = 2;
  Opt.AltClassProb = 0.4;
  Function F = generateFunction(R, Opt, "edge" + std::to_string(Seed));
  return convertToSsa(F).Ssa;
}

} // namespace

TEST(RegClassEdgeTest, ProjectClassWithNoMembersYieldsAnEmptyProblem) {
  // A two-class problem whose second class has no vertices: projecting
  // it must yield a well-formed empty problem, and solving must treat
  // the class as trivially satisfied.
  Graph G({5, 3, 2}, {{0, 1}, {1, 2}});
  AllocationProblem P = AllocationProblem::fromChordalGraph(
      G, {2, 4}, std::vector<RegClassId>(3, 0));

  std::vector<VertexId> ToGlobal;
  AllocationProblem Empty = P.projectClass(1, ToGlobal);
  EXPECT_EQ(Empty.graph().numVertices(), 0u);
  EXPECT_TRUE(ToGlobal.empty());
  EXPECT_TRUE(Empty.fitsBudgets());
  EXPECT_TRUE(isFeasibleAllocation(Empty, {}));

  // The class-aware entry point must route around the empty class and
  // still solve class 0 exactly.
  OptimalBnBAllocator BnB;
  AllocationResult Routed = BnB.allocateProblem(P);
  AllocationResult Occupied = P.multiClass()
                                  ? Routed
                                  : BnB.allocate(P); // (multiClass holds)
  EXPECT_TRUE(Routed.Proven);
  EXPECT_TRUE(isFeasibleAllocation(P, Routed.Allocated));
  EXPECT_EQ(Routed.Allocated, Occupied.Allocated);

  // Projecting the populated class covers every vertex.
  AllocationProblem Full = P.projectClass(0, ToGlobal);
  EXPECT_EQ(Full.graph().numVertices(), 3u);
  EXPECT_EQ(ToGlobal.size(), 3u);
}

TEST(RegClassEdgeTest, ClassRegsOverrideOfClassZeroWinsOverRegs) {
  // resolveClassBudgets: a class-0 override replaces the swept value.
  std::string Error;
  std::vector<unsigned> Budgets =
      resolveClassBudgets(ST231, 4, {{"gpr", 7}}, &Error);
  EXPECT_EQ(Budgets, std::vector<unsigned>{7});

  Budgets = resolveClassBudgets(ARMv7_VFP, 4, {{"gpr", 6}, {"vfp", 8}},
                                &Error);
  EXPECT_EQ(Budgets, (std::vector<unsigned>{6, 8}));

  // Unknown class names are rejected with the target's name in the
  // message.
  Budgets = resolveClassBudgets(ST231, 4, {{"vfp", 8}}, &Error);
  EXPECT_TRUE(Budgets.empty());
  EXPECT_NE(Error.find("st231"), std::string::npos) << Error;

  // End to end: a job overriding class 0 to R' must report exactly what
  // a plain --regs=R' job reports (outcomes, not just budgets).
  Suite S;
  S.Name = "edge";
  SuiteProgram Prog;
  Prog.Name = "p";
  for (uint64_t Seed = 1; Seed <= 3; ++Seed)
    Prog.Functions.push_back(makeMixedSsa(Seed));
  S.Programs.push_back(std::move(Prog));

  BatchJob Overridden;
  Overridden.SuiteName = S.Name;
  Overridden.SuiteData = &S;
  Overridden.Target = ARMv7_VFP;
  Overridden.NumRegisters = 4;           // Loses to the override.
  Overridden.ClassRegs = {{"gpr", 6}};
  BatchJob Plain = Overridden;
  Plain.NumRegisters = 6;
  Plain.ClassRegs.clear();

  BatchDriver Driver(1);
  DriverReport Report = Driver.run({Overridden, Plain});
  ASSERT_EQ(Report.Jobs.size(), 2u);
  const JobReport &JobA = Report.Jobs[0], &JobB = Report.Jobs[1];
  EXPECT_EQ(JobA.Job.Budgets, JobB.Job.Budgets);
  EXPECT_EQ(JobA.TotalSpillCost, JobB.TotalSpillCost);
  EXPECT_EQ(JobA.TotalLoads, JobB.TotalLoads);
  EXPECT_EQ(JobA.TotalStores, JobB.TotalStores);
  EXPECT_EQ(JobA.FunctionsFit, JobB.FunctionsFit);
  ASSERT_EQ(JobA.Tasks.size(), JobB.Tasks.size());
  for (size_t I = 0; I < JobA.Tasks.size(); ++I) {
    EXPECT_EQ(JobA.Tasks[I].Out.SpillCost, JobB.Tasks[I].Out.SpillCost);
    EXPECT_EQ(JobA.Tasks[I].Key, JobB.Tasks[I].Key)
        << "identical resolved budgets must produce identical cache keys";
  }
  // In fact the second job must be served from the first one's cache.
  EXPECT_EQ(Report.CacheHits, JobA.Tasks.size());
}

TEST(RegClassEdgeTest, BudgetBeyondArchitecturalCountBehavesAsNoPressure) {
  // vfp has 32 architectural registers; a budget of 64 is a legal solver
  // input and must act exactly like "this file never spills".
  std::string Error;
  std::vector<unsigned> Budgets =
      resolveClassBudgets(ARMv7_VFP, 4, {{"vfp", 64}}, &Error);
  EXPECT_EQ(Budgets, (std::vector<unsigned>{4, 64}));

  OptimalBnBAllocator BnB;
  for (uint64_t Seed = 21; Seed <= 24; ++Seed) {
    Function F = makeMixedSsa(Seed);
    AllocationProblem Huge = buildSsaProblem(F, ARMv7_VFP, {3, 64});
    AllocationProblem Arch = buildSsaProblem(F, ARMv7_VFP, {3, 32});

    AllocationResult RHuge = BnB.allocateProblem(Huge);
    AllocationResult RArch = BnB.allocateProblem(Arch);
    ASSERT_TRUE(RHuge.Proven);
    ASSERT_TRUE(RArch.Proven);
    EXPECT_TRUE(isFeasibleAllocation(Huge, RHuge.Allocated));

    // Cross-class non-interference: inflating the vfp budget cannot
    // change anything (32 already exceeds any generated pressure), and
    // the gpr side must be untouched either way.
    EXPECT_EQ(RHuge.Allocated, RArch.Allocated) << "seed=" << Seed;
    EXPECT_EQ(RHuge.SpillCost, RArch.SpillCost);

    // No vfp value may spill under a budget beyond its class pressure.
    if (Huge.multiClass()) {
      for (VertexId V = 0; V < Huge.graph().numVertices(); ++V)
        if (Huge.classOf(V) == 1) {
          EXPECT_TRUE(RHuge.Allocated[V]) << "seed=" << Seed << " v=" << V;
        }
    }
  }
}
