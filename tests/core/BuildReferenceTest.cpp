//===- tests/core/BuildReferenceTest.cpp - CSR build vs reference ---------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The problem build (flat liveness, sorted-live-list walk, stable edge
/// dedup, edge-list Graph constructor, MCS's later lists, fused PEO check
/// + CSR clique cover) must reproduce the reference of
/// fuzz/BuildReference.h exactly: live-in and live-out of every block, the
/// discovered edge sequence, adjacency order, PEO, later lists and
/// parents, clique lists and cliquesOf.  Checked on every build of one
/// paper-shaped register sweep, on the multi-class suite, and on a non-SSA
/// function whose repeated definitions make the dedup drop edges.
///
//===----------------------------------------------------------------------===//

#include "fuzz/BuildReference.h"

#include "alloc/Allocator.h"
#include "alloc/Pipeline.h"
#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "ir/OperandFolding.h"
#include "ir/SpillRewriter.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"

#include <gtest/gtest.h>

#include <memory>

using namespace layra;

namespace {

/// Replays runAllocationPipeline's round loop (alloc/Pipeline.cpp) under
/// the default options, comparing every problem it builds with the
/// reference.  Returns the number of builds.
unsigned checkEveryBuild(const Function &F, const TargetDesc &Target,
                         const std::vector<unsigned> &Budgets,
                         SolverWorkspace &WS) {
  PipelineOptions Options;
  std::unique_ptr<Allocator> Alloc = makeAllocator(Options.AllocatorName);
  Function Rewritten = F;
  std::vector<char> Pinned(F.numValues(), 0);
  unsigned Builds = 0;
  auto Build = [&] {
    ++Builds;
    AllocationProblem P = buildSsaProblem(Rewritten, Target, Budgets, &WS,
                                          /*WithIntervals=*/false);
    EXPECT_EQ(diffAgainstReference(
                  Rewritten, P, referenceInterferenceGraph(Rewritten, Target)),
              "")
        << F.name() << " budget " << Budgets[0] << " build " << Builds;
    return P;
  };
  bool Current = false;
  for (unsigned Round = 0; Round < Options.MaxRounds; ++Round) {
    AllocationProblem P = Build();
    Current = true;
    if (P.fitsBudgets())
      break;
    AllocationResult Result = Alloc->allocateProblem(P, &WS);
    std::vector<char> Spilled(Rewritten.numValues(), 0);
    unsigned NumSpilled = 0;
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      if (!Result.Allocated[V] && !(V < Pinned.size() && Pinned[V])) {
        Spilled[V] = 1;
        ++NumSpilled;
      }
    if (NumSpilled == 0)
      break;
    rewriteSpills(Rewritten, Spilled);
    if (Options.FoldMemoryOperands && Target.MaxMemOperands > 0)
      foldMemoryOperands(Rewritten, Target);
    Pinned.resize(Rewritten.numValues(), 0);
    for (VertexId V = 0; V < Spilled.size(); ++V)
      if (Spilled[V])
        Pinned[V] = 1;
    Current = false;
  }
  if (!Current)
    Build();
  return Builds;
}

} // namespace

TEST(BuildReferenceTest, EveryBuildOfTheSt231SweepMatchesTheReference) {
  // The paper's evaluation shape: eembc + spec2000int at 4..16 registers,
  // every spill round included.
  SolverWorkspace WS;
  unsigned Builds = 0;
  for (const char *Name : {"eembc", "spec2000int"}) {
    Suite S = makeSuite(Name);
    for (const SuiteProgram &Prog : S.Programs)
      for (const Function &F : Prog.Functions) {
        Function Ssa = convertToSsa(F).Ssa;
        for (unsigned Regs = 4; Regs <= 16; ++Regs)
          Builds += checkEveryBuild(Ssa, ST231, {Regs}, WS);
      }
  }
  EXPECT_EQ(Builds, 7737u);
}

TEST(BuildReferenceTest, MixedClassesOnArmv7VfpMatchTheReference) {
  SolverWorkspace WS;
  Suite S = makeSuite("mixed-classes");
  unsigned Builds = 0;
  for (const SuiteProgram &Prog : S.Programs)
    for (const Function &F : Prog.Functions) {
      Function Ssa = convertToSsa(F).Ssa;
      for (unsigned Regs : {4u, 6u, 8u})
        Builds += checkEveryBuild(
            Ssa, ARMv7_VFP, resolveClassBudgets(ARMv7_VFP, Regs, {{"vfp", 8}}),
            WS);
    }
  EXPECT_GT(Builds, 0u);
}

TEST(BuildReferenceTest, GeneralBuildDropsRediscoveredEdgesLikeTheReference) {
  // Non-SSA: x is defined at three points, each with y and z live after
  // it, so the walk rediscovers {x,y} and {x,z}; the stable dedup must
  // drop exactly what the reference's list scan drops and keep
  // first-occurrence order.
  Function F("redefs");
  BlockId B = F.makeBlock("entry");
  ValueId X = F.makeValue("x"), Y = F.makeValue("y"), Z = F.makeValue("z");
  auto Def = [&](ValueId D, std::vector<ValueId> Uses) {
    Instruction I;
    I.Op = Opcode::Op;
    I.Defs = {D};
    I.Uses = std::move(Uses);
    F.block(B).Instrs.push_back(I);
  };
  Def(Y, {});
  Def(Z, {});
  Def(X, {});
  Def(X, {X, Y});
  Def(X, {X, Z});
  Instruction Ret;
  Ret.Op = Opcode::Return;
  Ret.Uses = {X, Y, Z};
  F.block(B).Instrs.push_back(Ret);
  ASSERT_TRUE(verifyFunction(F));

  size_t Repeats = 0;
  ReferenceGraph Reference = referenceInterferenceGraph(F, ST231, &Repeats);
  EXPECT_GT(Repeats, 0u);
  AllocationProblem P = buildGeneralProblem(F, ST231, {2});
  EXPECT_FALSE(P.Chordal);
  EXPECT_EQ(diffAgainstReference(F, P, Reference), "");
  EXPECT_EQ(P.graph().numEdges(), 3u);
}
