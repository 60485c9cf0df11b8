//===- tests/core/CoalescingTest.cpp - Coalescing tests -------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/Coalescing.h"

#include "../ir/IrTestHelpers.h"
#include "core/Layered.h"
#include "core/ProblemBuilder.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"

#include <gtest/gtest.h>

using namespace layra;
using namespace layra::irtest;

TEST(CoalescingTest, CollectsCopyAndPhiAffinities) {
  Function F("f");
  BlockId Entry = F.makeBlock(), Left = F.makeBlock(),
          Right = F.makeBlock(), Merge = F.makeBlock();
  ValueId C = F.makeValue("c"), X = F.makeValue("x"), L = F.makeValue("l"),
          R = F.makeValue("r"), M = F.makeValue("m");
  op(F, Entry, C);
  copy(F, Entry, X, C); // Copy affinity (x, c).
  br(F, Entry, C);
  op(F, Left, L, {X});
  br(F, Left, C);
  op(F, Right, R, {X});
  br(F, Right, C);
  F.addEdge(Entry, Left);
  F.addEdge(Entry, Right);
  F.addEdge(Left, Merge);
  F.addEdge(Right, Merge);
  phi(F, Merge, M, {L, R}); // Phi affinities (m, l) and (m, r).
  ret(F, Merge, {M});

  std::vector<Affinity> Affinities = collectAffinities(F);
  ASSERT_EQ(Affinities.size(), 3u);
  unsigned CopyCount = 0, PhiCount = 0;
  for (const Affinity &A : Affinities) {
    if ((A.A == std::min(C, X)) && (A.B == std::max(C, X)))
      ++CopyCount;
    if (A.A == std::min(M, L) || A.B == std::max(M, R))
      ++PhiCount;
    EXPECT_GT(A.Benefit, 0);
  }
  EXPECT_EQ(CopyCount, 1u);
  EXPECT_GE(PhiCount, 1u);
}

TEST(CoalescingTest, RepeatedCopiesMergeBenefits) {
  Function F("f");
  BlockId B = F.makeBlock();
  ValueId A = F.makeValue("a"), X = F.makeValue("x"), Y = F.makeValue("y");
  op(F, B, A);
  copy(F, B, X, A);
  copy(F, B, Y, A); // Second affinity with A, different pair.
  ret(F, B, {X, Y});
  std::vector<Affinity> Affinities = collectAffinities(F);
  EXPECT_EQ(Affinities.size(), 2u);
}

TEST(CoalescingTest, BiasedAssignmentRemovesCopies) {
  // chain: a -> copy x -> copy y with no interference: biased assignment
  // puts all three in one register; the plain scan may too (they are
  // sequential), so check the copy-cost metric instead.
  Function F("f");
  BlockId B = F.makeBlock();
  ValueId A = F.makeValue("a"), X = F.makeValue("x"), Y = F.makeValue("y");
  op(F, B, A);
  copy(F, B, X, A);
  copy(F, B, Y, X);
  ret(F, B, {Y});
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {4});
  std::vector<Affinity> Affinities = collectAffinities(Conv.Ssa);
  std::vector<char> All(P.graph().numVertices(), 1);
  Assignment Biased = assignRegistersBiased(P, All, Affinities);
  EXPECT_TRUE(Biased.Success);
  EXPECT_EQ(remainingCopyCost(Affinities, All, Biased.RegisterOf), 0);
}

TEST(CoalescingTest, BiasedAssignmentNeverWorseOnCopyCost) {
  Rng R(18);
  Weight PlainTotal = 0, BiasedTotal = 0;
  for (int Round = 0; Round < 15; ++Round) {
    ProgramGenOptions Opt;
    Opt.CopyProb = 0.25;
    Function F = generateFunction(R, Opt);
    SsaConversion Conv = convertToSsa(F);
    AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {6});
    AllocationResult Alloc = layeredAllocate(P, LayeredOptions::bfpl());
    std::vector<Affinity> Affinities = collectAffinities(Conv.Ssa);
    Assignment Plain = assignRegisters(P, Alloc.Allocated);
    Assignment Biased = assignRegistersBiased(P, Alloc.Allocated, Affinities);
    EXPECT_EQ(Plain.Success, Biased.Success);
    PlainTotal +=
        remainingCopyCost(Affinities, Alloc.Allocated, Plain.RegisterOf);
    BiasedTotal +=
        remainingCopyCost(Affinities, Alloc.Allocated, Biased.RegisterOf);
  }
  EXPECT_LE(BiasedTotal, PlainTotal);
  EXPECT_LT(BiasedTotal, PlainTotal) << "bias should help on copy-rich code";
}
