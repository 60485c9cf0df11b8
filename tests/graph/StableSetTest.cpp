//===- tests/graph/StableSetTest.cpp - Frank's algorithm tests ------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "graph/StableSet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace layra;

namespace {
std::vector<Weight> weightsOf(const Graph &G) {
  std::vector<Weight> W(G.numVertices());
  for (VertexId V = 0; V < G.numVertices(); ++V)
    W[V] = G.weight(V);
  return W;
}

/// The paper's Figure 5 graph (see ChordalTest.cpp for the layout).
Graph figure5Graph() {
  // a..g are vertices 0..6.
  return Graph({1, 2, 2, 5, 2, 6, 1},
               {{0, 3}, {0, 5}, {3, 5}, {3, 4}, {4, 5},
                {2, 3}, {2, 4}, {1, 2}, {1, 6}, {6, 2}});
}
} // namespace

TEST(StableSetTest, EmptyGraph) {
  Graph G;
  StableSetResult R = maximumWeightedStableSetChordal(
      G, maximumCardinalitySearch(G), {});
  EXPECT_TRUE(R.Set.empty());
  EXPECT_EQ(R.TotalWeight, 0);
}

TEST(StableSetTest, SingleVertex) {
  Graph G({7}, {});
  StableSetResult R = maximumWeightedStableSetChordal(
      G, maximumCardinalitySearch(G), weightsOf(G));
  EXPECT_EQ(R.Set, std::vector<VertexId>{0});
  EXPECT_EQ(R.TotalWeight, 7);
}

TEST(StableSetTest, PaperFigure5ExampleHasWeightEight) {
  // The paper computes a maximum weighted stable set of weight 8 ({f,b} in
  // its trace; {f,c} is the other optimum).
  Graph G = figure5Graph();
  StableSetResult R = maximumWeightedStableSetChordal(
      G, maximumCardinalitySearch(G), weightsOf(G));
  EXPECT_EQ(R.TotalWeight, 8);
  EXPECT_TRUE(G.isStableSet(R.Set));
  std::set<VertexId> Got(R.Set.begin(), R.Set.end());
  std::set<VertexId> BF{1, 5}, CF{2, 5};
  EXPECT_TRUE(Got == BF || Got == CF);
}

TEST(StableSetTest, PaperFigure5WithPaperPeoReproducesTrace) {
  // Driving Frank's algorithm with the paper's own PEO [a,f,d,e,b,g,c]
  // reproduces the trace of Figure 5: red = {b, f, a}, blue = {f, b}.
  Graph G = figure5Graph();
  EliminationOrder PaperPeo =
      EliminationOrder::fromOrder(G, {0, 5, 3, 4, 1, 6, 2});
  StableSetResult R =
      maximumWeightedStableSetChordal(G, PaperPeo, weightsOf(G));
  std::set<VertexId> Got(R.Set.begin(), R.Set.end());
  EXPECT_EQ(Got, (std::set<VertexId>{1, 5})); // {b, f}
  EXPECT_EQ(R.TotalWeight, 8);
}

TEST(StableSetTest, ZeroWeightVerticesAreNeverChosen) {
  Graph G({0, 5, 0}, {{0, 1}});
  StableSetResult R = maximumWeightedStableSetChordal(
      G, maximumCardinalitySearch(G), weightsOf(G));
  EXPECT_EQ(R.Set, std::vector<VertexId>{1});
}

TEST(StableSetTest, MaskRestrictsTheComputation) {
  // Path a-b-c with weights 1, 10, 1: unmasked optimum is {b}; masking out
  // b must yield {a, c}.
  Graph G({1, 10, 1}, {{0, 1}, {1, 2}});
  EliminationOrder Peo = maximumCardinalitySearch(G);
  StableSetResult Full =
      maximumWeightedStableSetChordal(G, Peo, weightsOf(G));
  EXPECT_EQ(Full.Set, std::vector<VertexId>{1});

  std::vector<char> Mask{1, 0, 1};
  StableSetResult Masked =
      maximumWeightedStableSetChordal(G, Peo, weightsOf(G), Mask);
  std::set<VertexId> Got(Masked.Set.begin(), Masked.Set.end());
  EXPECT_EQ(Got, (std::set<VertexId>{0, 2}));
  EXPECT_EQ(Masked.TotalWeight, 2);
}

TEST(StableSetTest, MatchesBruteForceOnRandomChordalGraphs) {
  Rng R(909);
  for (int Round = 0; Round < 60; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 3 + static_cast<unsigned>(R.nextBelow(15));
    Opt.TreeSize = 3 + static_cast<unsigned>(R.nextBelow(12));
    Opt.MaxWeight = 20;
    Graph G = randomChordalGraph(R, Opt);
    EliminationOrder Peo = maximumCardinalitySearch(G);
    StableSetResult Fast =
        maximumWeightedStableSetChordal(G, Peo, weightsOf(G));
    StableSetResult Slow =
        maximumWeightedStableSetBruteForce(G, weightsOf(G));
    EXPECT_EQ(Fast.TotalWeight, Slow.TotalWeight) << "round " << Round;
    EXPECT_TRUE(G.isStableSet(Fast.Set));
  }
}

TEST(StableSetTest, MatchesBruteForceOnRandomIntervalGraphs) {
  Rng R(111);
  for (int Round = 0; Round < 40; ++Round) {
    Graph G = randomIntervalGraph(R, 3 + static_cast<unsigned>(R.nextBelow(14)),
                                  40, 15, 25);
    EliminationOrder Peo = maximumCardinalitySearch(G);
    StableSetResult Fast =
        maximumWeightedStableSetChordal(G, Peo, weightsOf(G));
    StableSetResult Slow =
        maximumWeightedStableSetBruteForce(G, weightsOf(G));
    EXPECT_EQ(Fast.TotalWeight, Slow.TotalWeight) << "round " << Round;
  }
}

TEST(StableSetTest, ReportedWeightMatchesSet) {
  Rng R(222);
  ChordalGenOptions Opt;
  Opt.NumVertices = 50;
  Graph G = randomChordalGraph(R, Opt);
  StableSetResult Result = maximumWeightedStableSetChordal(
      G, maximumCardinalitySearch(G), weightsOf(G));
  EXPECT_EQ(Result.TotalWeight, G.weightOf(Result.Set));
}
