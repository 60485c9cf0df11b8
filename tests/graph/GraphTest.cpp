//===- tests/graph/GraphTest.cpp - Graph unit tests -----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Graph.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

using namespace layra;

namespace {

std::vector<VertexId> neighborList(const Graph &G, VertexId V) {
  return {G.neighbors(V).begin(), G.neighbors(V).end()};
}

} // namespace

TEST(GraphTest, DegreeTracksNeighbors) {
  Graph G({0, 0, 0, 0}, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(G.degree(0), 3u);
  EXPECT_EQ(G.degree(1), 1u);
  EXPECT_TRUE(G.hasEdge(0, 1));
  EXPECT_TRUE(G.hasEdge(1, 0));
  EXPECT_FALSE(G.hasEdge(1, 2));
}

TEST(GraphTest, TotalAndSubsetWeight) {
  Graph G({5, 7, 11}, {});
  EXPECT_EQ(G.numVertices(), 3u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(G.weight(1), 7);
  EXPECT_EQ(G.totalWeight(), 23);
  EXPECT_EQ(G.weightOf({0, 2}), 16);
}

TEST(GraphTest, StableSetDetection) {
  Graph G({0, 0, 0, 0}, {{0, 1}, {2, 3}});
  EXPECT_TRUE(G.isStableSet({0, 2}));
  EXPECT_TRUE(G.isStableSet({1, 3}));
  EXPECT_FALSE(G.isStableSet({0, 1}));
  EXPECT_TRUE(G.isStableSet({}));
}

TEST(GraphTest, InducedSubgraphKeepsWeightsAndEdges) {
  Graph G({1, 2, 3, 4}, {{0, 1}, {1, 2}, {2, 3}});
  G.setWeight(2, 9);
  EXPECT_EQ(G.weight(2), 9);

  std::vector<VertexId> Map;
  Graph Sub = G.inducedSubgraph({1, 2, 3}, &Map);
  EXPECT_EQ(Sub.numVertices(), 3u);
  EXPECT_EQ(Sub.numEdges(), 2u); // 1-2 and 2-3 survive; 0-1 dropped.
  EXPECT_EQ(Map[0], ~0u);
  EXPECT_EQ(Sub.weight(Map[1]), 2);
  EXPECT_EQ(Sub.weight(Map[2]), 9);
  EXPECT_TRUE(Sub.hasEdge(Map[1], Map[2]));
  EXPECT_TRUE(Sub.hasEdge(Map[3], Map[2]));
  EXPECT_FALSE(Sub.hasEdge(Map[1], Map[3]));
}

TEST(GraphTest, ToDotMentionsVerticesAndEdges) {
  Graph G({1, 2}, {{0, 1}});
  std::string Dot = G.toDot({0});
  EXPECT_NE(Dot.find("n0 [label=\"v0:1\""), std::string::npos) << Dot;
  EXPECT_NE(Dot.find("n1 [label=\"v1:2\"]"), std::string::npos) << Dot;
  EXPECT_NE(Dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(Dot.find("filled"), std::string::npos);
}

TEST(GraphTest, RemoveRepeatedEdgesKeepsFirstOccurrenceOrder) {
  // Repeats in both orientations, interleaved with first occurrences.
  std::vector<GraphEdge> Edges{{2, 0}, {0, 1}, {0, 2}, {3, 1}, {1, 0},
                               {2, 3}, {1, 3}, {3, 2}, {0, 3}, {2, 0}};
  removeRepeatedEdges(Edges, 4);
  ASSERT_EQ(Edges.size(), 5u);
  std::vector<std::pair<VertexId, VertexId>> Kept;
  for (const GraphEdge &E : Edges)
    Kept.push_back({E.U, E.V});
  EXPECT_EQ(Kept, (std::vector<std::pair<VertexId, VertexId>>{
                      {2, 0}, {0, 1}, {3, 1}, {2, 3}, {0, 3}}));

  // Neighbors follow the list, not sorted order: MCS tie-breaking
  // depends on it.
  Graph G({1, 2, 3, 4}, Edges);
  EXPECT_EQ(G.numEdges(), 5u);
  EXPECT_EQ(neighborList(G, 0), (std::vector<VertexId>{2, 1, 3}));
  EXPECT_EQ(neighborList(G, 1), (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(neighborList(G, 2), (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(neighborList(G, 3), (std::vector<VertexId>{1, 2, 0}));
  EXPECT_FALSE(G.hasEdge(1, 2));
}

TEST(GraphTest, EdgeListConstructorKeepsListOrderAtAnySize) {
  // Thousands of vertices too: there is no vertex-count cap.
  for (unsigned N : {7u, 4099u}) {
    std::vector<GraphEdge> Edges;
    for (VertexId V = 1; V < N; ++V)
      for (VertexId U = V % 3; U < V; U += 1 + V / 4)
        Edges.push_back(V % 2 ? GraphEdge{U, V} : GraphEdge{V, U});
    std::vector<Weight> Weights(N);
    std::vector<std::vector<VertexId>> Want(N);
    for (VertexId V = 0; V < N; ++V)
      Weights[V] = V % 13;
    for (const GraphEdge &E : Edges) {
      Want[E.U].push_back(E.V);
      Want[E.V].push_back(E.U);
    }

    Graph G(Weights, Edges);
    ASSERT_EQ(G.numVertices(), N);
    EXPECT_EQ(G.numEdges(), Edges.size());
    for (VertexId V = 0; V < N; ++V) {
      EXPECT_EQ(neighborList(G, V), Want[V]) << V;
      EXPECT_EQ(G.weight(V), Weights[V]) << V;
    }
    EXPECT_TRUE(G.hasEdge(Edges.back().V, Edges.back().U));
    EXPECT_FALSE(G.hasEdge(0, 1));
  }
}

TEST(GraphTest, HasEdgeAgreesWithTheEdgeList) {
  std::set<std::pair<VertexId, VertexId>> Present;
  std::vector<GraphEdge> Edges;
  for (VertexId V = 0; V < 200; ++V)
    for (VertexId U = V % 7; U < V; U += 13) {
      Edges.push_back({U, V});
      Present.insert({U, V});
    }
  Graph G(std::vector<Weight>(200, 1), Edges);
  EXPECT_EQ(G.numEdges(), Edges.size());
  for (VertexId U = 0; U < 200; ++U)
    for (VertexId V = U + 1; V < 200; ++V) {
      bool Want = Present.count({U, V}) != 0;
      EXPECT_EQ(G.hasEdge(U, V), Want) << U << "-" << V;
      EXPECT_EQ(G.hasEdge(V, U), Want) << V << "-" << U;
    }
  EXPECT_FALSE(G.hasEdge(0, 12)); // 12 % 7 = 5, step 13: never listed.
}

TEST(GraphTest, NeighborRangeBasics) {
  Graph G({0, 0, 0}, {{0, 1}, {0, 2}});
  NeighborRange N = G.neighbors(0);
  EXPECT_EQ(N.size(), 2u);
  EXPECT_FALSE(N.empty());
  EXPECT_EQ(N[0], 1u);
  EXPECT_EQ(N[1], 2u);
  // Equality is element-wise, not pointer identity: 1 and 2 both see {0}.
  EXPECT_EQ(G.neighbors(1), G.neighbors(2));
  EXPECT_TRUE(G.neighbors(0) != G.neighbors(1));
  NeighborRange Empty;
  EXPECT_TRUE(Empty.empty());
  EXPECT_EQ(Empty.size(), 0u);
}
