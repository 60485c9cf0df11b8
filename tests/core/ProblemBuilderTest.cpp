//===- tests/core/ProblemBuilderTest.cpp - Problem builder tests ----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/ProblemBuilder.h"

#include "core/AllocationProblem.h"
#include "graph/Chordal.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace layra;

TEST(ProblemBuilderTest, SsaProblemIsChordalWithCliqueConstraints) {
  Rng R(71);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, 4);
  EXPECT_TRUE(P.Chordal);
  EXPECT_EQ(P.Constraints.size(), P.Cliques.numCliques());
  EXPECT_TRUE(isPerfectEliminationOrder(P.graph(), P.Peo));
  EXPECT_TRUE(P.Intervals.has_value());
  EXPECT_EQ(P.uniformBudget(), 4u);
}

TEST(ProblemBuilderTest, GeneralProblemCoversEveryVertex) {
  Rng R(72);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  AllocationProblem P = buildGeneralProblem(F, ARMv7, 6);
  EXPECT_FALSE(P.Chordal);
  std::vector<char> Covered(P.graph().numVertices(), 0);
  for (const auto &C : P.Constraints)
    for (VertexId V : C.Members)
      Covered[V] = 1;
  for (VertexId V = 0; V < P.graph().numVertices(); ++V)
    EXPECT_TRUE(Covered[V]) << "vertex " << V << " in no constraint";
}

TEST(ProblemBuilderTest, WithRegistersPreservesStructure) {
  Rng R(73);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, 4);
  AllocationProblem Q = P.withBudgets({9});
  EXPECT_EQ(Q.uniformBudget(), 9u);
  EXPECT_EQ(Q.graph().numVertices(), P.graph().numVertices());
  EXPECT_EQ(Q.Constraints.size(), P.Constraints.size());
  // The sweep path shares one immutable graph instead of copying it.
  EXPECT_EQ(Q.G.get(), P.G.get());
  for (size_t I = 0; I < Q.Constraints.size(); ++I)
    EXPECT_EQ(Q.Constraints[I].Budget, 9u);
}

TEST(ProblemBuilderTest, MaxLiveMatchesLargestConstraint) {
  Rng R(74);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, 4);
  size_t Largest = 0;
  for (const auto &C : P.Constraints)
    Largest = std::max(Largest, C.Members.size());
  EXPECT_EQ(P.maxLive(), Largest);
}

TEST(ProblemBuilderTest, SingletonConstraintAddedForIsolatedVertices) {
  Graph G(3);
  G.setWeight(2, 5); // Vertex 2 is isolated.
  G.addEdge(0, 1);
  AllocationProblem P =
      AllocationProblem::fromGeneralGraph(std::move(G), 2, {{0, 1}});
  bool Found = false;
  for (const auto &C : P.Constraints)
    Found |= C.Members.size() == 1 && C.Members[0] == 2;
  EXPECT_TRUE(Found);
}
