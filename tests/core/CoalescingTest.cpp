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
#include "graph/Chordal.h"
#include "ir/LoopInfo.h"
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

TEST(CoalescingTest, ConservativeCoalescingNeverMergesInterfering) {
  // a and b overlap: the affinity between them must be rejected.
  Graph G({5, 5}, {{0, 1}});
  CoalescingResult Out =
      coalesceConservative(G, {{0, 1, 10}}, /*NumRegisters=*/4);
  EXPECT_EQ(Out.Merged, 0u);
  EXPECT_EQ(Out.Coalesced.numVertices(), 2u);
}

TEST(CoalescingTest, MergesNonInterferingPairAndSumsWeights) {
  Graph G({5, 7, 1}, {{1, 2}}); // 0 and 1 do not interfere.
  CoalescingResult Out = coalesceConservative(G, {{0, 1, 3}}, 4);
  EXPECT_EQ(Out.Merged, 1u);
  EXPECT_EQ(Out.BenefitRealized, 3);
  EXPECT_EQ(Out.Coalesced.numVertices(), 2u);
  // The merged node carries both weights and the union of edges.
  VertexId Rep = Out.CoalescedIndex[0];
  EXPECT_EQ(Rep, Out.CoalescedIndex[1]);
  EXPECT_EQ(Out.Coalesced.weight(Rep), 12);
  EXPECT_TRUE(Out.Coalesced.hasEdge(Rep, Out.CoalescedIndex[2]));
}

TEST(CoalescingTest, BriggsTestBlocksRiskyMerges) {
  // K4 plus two pendant vertices x, y with an affinity: merging x and y
  // would create a node with 4 significant (degree >= 2) neighbors at
  // R = 2, so the conservative test must refuse.
  std::vector<GraphEdge> Edges;
  for (VertexId V = 0; V < 4; ++V)
    for (VertexId U = V + 1; U < 4; ++U)
      Edges.push_back({V, U});
  Edges.insert(Edges.end(), {{4, 0}, {4, 1}, {5, 2}, {5, 3}});
  Graph G(std::vector<Weight>(6, 1), Edges);
  CoalescingResult Out = coalesceConservative(G, {{4, 5, 100}}, 2);
  EXPECT_EQ(Out.Merged, 0u);
  // With plenty of registers the same merge is fine.
  CoalescingResult Relaxed = coalesceConservative(G, {{4, 5, 100}}, 8);
  EXPECT_EQ(Relaxed.Merged, 1u);
}

TEST(CoalescingTest, CoalescedChordalGraphStaysAllocatable) {
  Rng R(17);
  for (int Round = 0; Round < 10; ++Round) {
    ProgramGenOptions Opt;
    Opt.CopyProb = 0.3; // Copy-rich.
    Function F = generateFunction(R, Opt);
    DominatorTree Dom(F);
    LoopInfo Loops(F, Dom);
    Loops.annotate(F);
    SsaConversion Conv = convertToSsa(F);
    AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, 4);
    std::vector<Affinity> Affinities = collectAffinities(Conv.Ssa);
    CoalescingResult Out =
        coalesceConservative(P.graph(), Affinities, P.uniformBudget());
    // The coalesced graph of a chordal graph after conservative merging
    // still supports the layered allocator (it requires chordality; merged
    // SSA graphs can in principle lose it, so only assert when it holds --
    // and it must hold for the majority of these small cases).
    if (isChordal(Out.Coalesced)) {
      AllocationProblem Q = AllocationProblem::fromChordalGraph(
          Out.Coalesced, P.uniformBudget());
      AllocationResult Result = layeredAllocate(Q, LayeredOptions::bfpl());
      EXPECT_TRUE(isFeasibleAllocation(Q, Result.Allocated));
    }
  }
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
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, 4);
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
    AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, 6);
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
