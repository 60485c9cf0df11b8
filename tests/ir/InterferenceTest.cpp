//===- tests/ir/InterferenceTest.cpp - Interference builder tests ---------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Interference.h"

#include "IrTestHelpers.h"
#include "graph/Chordal.h"
#include "ir/LoopInfo.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace layra;
using namespace layra::irtest;

TEST(InterferenceTest, OverlappingValuesInterfere) {
  Function F("f");
  BlockId B = F.makeBlock();
  ValueId A = F.makeValue("a"), Bv = F.makeValue("b"), C = F.makeValue("c");
  op(F, B, A);
  op(F, B, Bv);          // a live here -> a-b edge.
  op(F, B, C, {A, Bv});  // a, b live here -> c-a, c-b? (a,b die here)
  ret(F, B, {C});

  Liveness Live(F);
  std::vector<Weight> Costs(F.numValues(), 1);
  InterferenceInfo Info = buildInterference(F, Live, Costs);
  EXPECT_TRUE(Info.G.hasEdge(A, Bv));
  // c is born as a and b die: no interference with either.
  EXPECT_FALSE(Info.G.hasEdge(A, C));
  EXPECT_FALSE(Info.G.hasEdge(Bv, C));
  EXPECT_EQ(Live.maxLive(F), 2u);
}

TEST(InterferenceTest, SpillCostsWeightedByFrequency) {
  // One access in the entry (freq 1), the loop body accesses x twice per
  // iteration (freq 10 after annotation).
  Function F("f");
  BlockId Entry = F.makeBlock(), Body = F.makeBlock(), Exit = F.makeBlock();
  ValueId X = F.makeValue("x"), T = F.makeValue("t");
  op(F, Entry, X);
  br(F, Entry, X);
  op(F, Body, T, {X, X});
  br(F, Body, T);
  ret(F, Exit, {X});
  F.addEdge(Entry, Body);
  F.addEdge(Body, Body);
  F.addEdge(Body, Exit);

  DominatorTree Dom(F);
  LoopInfo Loops(F, Dom);
  Loops.annotate(F);
  ASSERT_EQ(F.block(Body).Frequency, 10);

  std::vector<Weight> Costs = computeSpillCosts(F, ST231);
  // x: def in entry (store, freq 1) + branch use in entry (load, freq 1)
  //    + 2 uses in body (loads, freq 10) + 1 use in exit (load, freq 1).
  EXPECT_EQ(Costs[X], ST231.StoreCost * 1 + ST231.LoadCost * 1 +
                          ST231.LoadCost * 20 + ST231.LoadCost * 1);
  // t: def (store) + use (branch) in body at freq 10.
  EXPECT_EQ(Costs[T], ST231.StoreCost * 10 + ST231.LoadCost * 10);
}

TEST(InterferenceTest, PhiDefsInterfereWithLiveIns) {
  Function F("f");
  BlockId Entry = F.makeBlock(), Left = F.makeBlock(),
          Right = F.makeBlock(), Merge = F.makeBlock();
  ValueId C = F.makeValue("c"), L = F.makeValue("l"), R = F.makeValue("r"),
          M = F.makeValue("m");
  op(F, Entry, C);
  br(F, Entry, C);
  op(F, Left, L);
  br(F, Left, L);
  op(F, Right, R);
  br(F, Right, R);
  F.addEdge(Entry, Left);
  F.addEdge(Entry, Right);
  F.addEdge(Left, Merge);
  F.addEdge(Right, Merge);
  phi(F, Merge, M, {L, R});
  ret(F, Merge, {M, C}); // c is live across both arms and the phi.
  ASSERT_TRUE(verifyFunction(F, /*ExpectSsa=*/true));

  Liveness Live(F);
  std::vector<Weight> Costs(F.numValues(), 1);
  InterferenceInfo Info = buildInterference(F, Live, Costs);
  EXPECT_TRUE(Info.G.hasEdge(M, C));  // Phi def vs live-through value.
  EXPECT_TRUE(Info.G.hasEdge(L, C));
  EXPECT_TRUE(Info.G.hasEdge(R, C));
  EXPECT_FALSE(Info.G.hasEdge(L, R)); // Different arms never overlap.
  EXPECT_FALSE(Info.G.hasEdge(M, L)); // Phi kills its operand.
}

TEST(InterferenceTest, PointLiveSetsAreCliques) {
  Rng Rand(4242);
  for (int Round = 0; Round < 15; ++Round) {
    ProgramGenOptions Opt;
    Opt.NumVars = 8 + static_cast<unsigned>(Rand.nextBelow(16));
    Function F = generateFunction(Rand, Opt);
    SsaConversion Conv = convertToSsa(F);
    Liveness Live(Conv.Ssa);
    std::vector<Weight> Costs = computeSpillCosts(Conv.Ssa, ST231);
    InterferenceInfo Info = buildInterference(Conv.Ssa, Live, Costs);
    for (const auto &Set : Info.PointLiveSets)
      for (size_t I = 0; I < Set.size(); ++I)
        for (size_t J = I + 1; J < Set.size(); ++J)
          EXPECT_TRUE(Info.G.hasEdge(Set[I], Set[J]))
              << "round " << Round << " non-clique live set";
  }
}

TEST(InterferenceTest, MaximalCliquesAppearAmongPointLiveSets) {
  // Paper §3.2: on SSA graphs, maximal cliques == maximal live sets.
  Rng Rand(777);
  for (int Round = 0; Round < 10; ++Round) {
    ProgramGenOptions Opt;
    Opt.NumVars = 8 + static_cast<unsigned>(Rand.nextBelow(12));
    Function F = generateFunction(Rand, Opt);
    SsaConversion Conv = convertToSsa(F);
    Liveness Live(Conv.Ssa);
    std::vector<Weight> Costs = computeSpillCosts(Conv.Ssa, ST231);
    InterferenceInfo Info = buildInterference(Conv.Ssa, Live, Costs);

    std::set<std::vector<VertexId>> PointSets(Info.PointLiveSets.begin(),
                                              Info.PointLiveSets.end());
    CliqueCover Cover =
        maximalCliquesChordal(Info.G, maximumCardinalitySearch(Info.G));
    for (unsigned K = 0; K < Cover.numCliques(); ++K) {
      std::vector<VertexId> Clique(Cover.clique(K).begin(),
                                   Cover.clique(K).end());
      std::sort(Clique.begin(), Clique.end());
      EXPECT_TRUE(PointSets.count(Clique))
          << "round " << Round << ": maximal clique not a live set";
    }
    EXPECT_EQ(Cover.maxCliqueSize(), Live.maxLive(Conv.Ssa))
        << "round " << Round;
  }
}
