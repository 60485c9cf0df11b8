//===- tests/integration/PipelineTest.cpp - End-to-end pipeline -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end: generate a program, convert to SSA, build the problem,
/// allocate with every algorithm, assign registers, materialise spill code,
/// and verify that the rewritten function's pressure fits the machine
/// (modulo the transient reload operands of §4.3).
///
//===----------------------------------------------------------------------===//

#include "alloc/Allocator.h"
#include "core/Assignment.h"
#include "core/Layered.h"
#include "core/ProblemBuilder.h"
#include "ir/Liveness.h"
#include "ir/ProgramGen.h"
#include "ir/SpillRewriter.h"
#include "ir/SsaBuilder.h"

#include <gtest/gtest.h>

using namespace layra;

TEST(PipelineTest, SpillRewriteBringsPressureDown) {
  Rng R(271828);
  for (int Round = 0; Round < 10; ++Round) {
    ProgramGenOptions Opt;
    Opt.NumVars = 16;
    Opt.MaxBlocks = 32;
    Function F = generateFunction(R, Opt);
    SsaConversion Conv = convertToSsa(F);
    unsigned Regs = 3 + static_cast<unsigned>(R.nextBelow(4));
    AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {Regs});
    unsigned MaxLiveBefore = P.maxLive();
    if (MaxLiveBefore <= Regs)
      continue; // Nothing to spill.

    AllocationResult Alloc = layeredAllocate(P, LayeredOptions::bfpl());
    ASSERT_TRUE(isFeasibleAllocation(P, Alloc.Allocated));

    // Materialise the spill decision.
    Function Rewritten = Conv.Ssa;
    std::vector<char> Spilled(Rewritten.numValues(), 0);
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      Spilled[V] = Alloc.Allocated[V] ? 0 : 1;
    SpillRewriteStats Stats = rewriteSpills(Rewritten, Spilled);
    EXPECT_GT(Stats.NumLoads + Stats.NumStores, 0u);
    ASSERT_TRUE(verifyFunction(Rewritten, /*ExpectSsa=*/true));

    // After the rewrite, the surviving long live ranges fit in R registers.
    // Reload temporaries transiently exceed that: at most the operand width
    // of one instruction, plus the reloads stacked at a block end for
    // spilled phi operands (paper §4.3 discusses exactly this local
    // excess -- "highly sensitive to the number of simultaneously spilled
    // variables").
    Liveness LiveAfter(Rewritten);
    unsigned MaxLiveAfter = LiveAfter.maxLive(Rewritten);
    unsigned WidestInstr = 0;
    for (BlockId B = 0; B < Rewritten.numBlocks(); ++B)
      for (const Instruction &I : Rewritten.block(B).Instrs)
        WidestInstr = std::max(
            WidestInstr,
            static_cast<unsigned>(I.Defs.size() + I.Uses.size()));
    unsigned MaxEdgeReloads = 0;
    for (BlockId B = 0; B < Rewritten.numBlocks(); ++B) {
      unsigned TrailingLoads = 0;
      const std::vector<Instruction> &Is = Rewritten.block(B).Instrs;
      for (size_t I = Is.size(); I-- > 0;) {
        if (Is[I].isTerminator())
          continue;
        if (Is[I].Op != Opcode::Load)
          break;
        ++TrailingLoads;
      }
      MaxEdgeReloads = std::max(MaxEdgeReloads, TrailingLoads);
    }
    EXPECT_LE(MaxLiveAfter, Regs + WidestInstr + MaxEdgeReloads)
        << "round " << Round << " spills did not lower pressure";
  }
}

TEST(PipelineTest, AssignThenVerifyColoringAgainstInterference) {
  Rng R(314159);
  ProgramGenOptions Opt;
  Opt.NumVars = 20;
  Opt.MaxBlocks = 40;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {6});
  AllocationResult Alloc = layeredAllocate(P, LayeredOptions::bfpl());
  Assignment A = assignRegisters(P, Alloc.Allocated);
  EXPECT_TRUE(A.Success);
  // No two interfering allocated values share a register.
  for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
    if (!Alloc.Allocated[V])
      continue;
    for (VertexId U : P.graph().neighbors(V))
      if (Alloc.Allocated[U]) {
        EXPECT_NE(A.RegisterOf[V], A.RegisterOf[U]);
      }
  }
}

TEST(PipelineTest, CostModelIsConsistentAcrossAllocators) {
  // Whatever the algorithm, AllocatedWeight + SpillCost must equal the
  // total weight, and costs must be reproducible across runs.
  Rng R(161);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ARMv7, {4});
  for (const std::string &Name :
       {std::string("gc"), std::string("bfpl"), std::string("lh"),
        std::string("ls"), std::string("optimal")}) {
    AllocationResult First = makeAllocator(Name)->allocate(P);
    AllocationResult Second = makeAllocator(Name)->allocate(P);
    EXPECT_EQ(First.SpillCost, Second.SpillCost) << Name;
    EXPECT_EQ(First.AllocatedWeight + First.SpillCost, P.graph().totalWeight())
        << Name;
  }
}

TEST(PipelineTest, TargetsDifferOnlyInCostScale) {
  Rng R(162);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem PSt = buildSsaProblem(Conv.Ssa, ST231, {4});
  AllocationProblem PArm = buildSsaProblem(Conv.Ssa, ARMv7, {4});
  // Same structure...
  EXPECT_EQ(PSt.graph().numVertices(), PArm.graph().numVertices());
  EXPECT_EQ(PSt.graph().numEdges(), PArm.graph().numEdges());
  EXPECT_EQ(PSt.Cliques, PArm.Cliques);
  // ...different weights.
  bool AnyDifferent = false;
  for (VertexId V = 0; V < PSt.graph().numVertices(); ++V)
    AnyDifferent |= PSt.graph().weight(V) != PArm.graph().weight(V);
  EXPECT_TRUE(AnyDifferent);
}
