//===- tests/graph/ColoringTest.cpp - Coloring tests ----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Coloring.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

using namespace layra;

TEST(ColoringTest, GreedyColoringIsProper) {
  Rng R(10);
  Graph G = randomGraph(R, 30, 0.2, 10);
  std::vector<VertexId> Order;
  for (VertexId V = 0; V < G.numVertices(); ++V)
    Order.push_back(V);
  std::vector<unsigned> Colors = greedyColoring(G, Order);
  EXPECT_TRUE(isProperColoring(G, Colors));
  for (unsigned C : Colors)
    EXPECT_NE(C, kNoColor);
}

TEST(ColoringTest, ChordalColoringUsesMaxCliqueColors) {
  Rng R(20);
  for (int Round = 0; Round < 20; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 10 + static_cast<unsigned>(R.nextBelow(40));
    Graph G = randomChordalGraph(R, Opt);
    EliminationOrder Peo = maximumCardinalitySearch(G);
    CliqueCover Cover = maximalCliquesChordal(G, Peo);
    std::vector<unsigned> Colors = colorChordal(G, Peo);
    EXPECT_TRUE(isProperColoring(G, Colors));
    // Optimality on chordal graphs: #colors == clique number.
    EXPECT_EQ(numColorsUsed(Colors), Cover.maxCliqueSize()) << Round;
  }
}

TEST(ColoringTest, PartialSequenceLeavesRestUncolored) {
  Graph G({0, 0, 0}, {{0, 1}});
  std::vector<unsigned> Colors = greedyColoring(G, {0, 1});
  EXPECT_NE(Colors[0], kNoColor);
  EXPECT_NE(Colors[1], kNoColor);
  EXPECT_EQ(Colors[2], kNoColor);
  EXPECT_NE(Colors[0], Colors[1]);
  EXPECT_TRUE(isProperColoring(G, Colors));
}

TEST(ColoringTest, NumColorsUsedOnEmpty) {
  EXPECT_EQ(numColorsUsed({}), 0u);
  EXPECT_EQ(numColorsUsed({kNoColor, kNoColor}), 0u);
}

TEST(ColoringTest, ImproperColoringDetected) {
  Graph G({0, 0}, {{0, 1}});
  EXPECT_FALSE(isProperColoring(G, {0u, 0u}));
  EXPECT_TRUE(isProperColoring(G, {0u, 1u}));
}
