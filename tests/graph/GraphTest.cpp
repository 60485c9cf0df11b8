//===- tests/graph/GraphTest.cpp - Graph unit tests -----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Graph.h"

#include <gtest/gtest.h>

using namespace layra;

TEST(GraphTest, AddVertexAssignsDenseIds) {
  Graph G;
  EXPECT_EQ(G.addVertex(1), 0u);
  EXPECT_EQ(G.addVertex(2), 1u);
  EXPECT_EQ(G.numVertices(), 2u);
  EXPECT_EQ(G.weight(0), 1);
  EXPECT_EQ(G.weight(1), 2);
}

TEST(GraphTest, AddEdgeIsIdempotent) {
  Graph G(3);
  EXPECT_TRUE(G.addEdge(0, 1));
  EXPECT_FALSE(G.addEdge(1, 0)); // Same undirected edge.
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_TRUE(G.hasEdge(0, 1));
  EXPECT_TRUE(G.hasEdge(1, 0));
  EXPECT_FALSE(G.hasEdge(0, 2));
}

TEST(GraphTest, DegreeTracksNeighbors) {
  Graph G(4);
  G.addEdge(0, 1);
  G.addEdge(0, 2);
  G.addEdge(0, 3);
  EXPECT_EQ(G.degree(0), 3u);
  EXPECT_EQ(G.degree(1), 1u);
}

TEST(GraphTest, TotalAndSubsetWeight) {
  Graph G;
  G.addVertex(5);
  G.addVertex(7);
  G.addVertex(11);
  EXPECT_EQ(G.totalWeight(), 23);
  EXPECT_EQ(G.weightOf({0, 2}), 16);
}

TEST(GraphTest, StableSetDetection) {
  Graph G(4);
  G.addEdge(0, 1);
  G.addEdge(2, 3);
  EXPECT_TRUE(G.isStableSet({0, 2}));
  EXPECT_TRUE(G.isStableSet({1, 3}));
  EXPECT_FALSE(G.isStableSet({0, 1}));
  EXPECT_TRUE(G.isStableSet({}));
}

TEST(GraphTest, InducedSubgraphKeepsWeightsAndEdges) {
  Graph G;
  for (Weight W : {1, 2, 3, 4})
    G.addVertex(W);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);

  std::vector<VertexId> Map;
  Graph Sub = G.inducedSubgraph({1, 2, 3}, &Map);
  EXPECT_EQ(Sub.numVertices(), 3u);
  EXPECT_EQ(Sub.numEdges(), 2u); // 1-2 and 2-3 survive; 0-1 dropped.
  EXPECT_EQ(Map[0], ~0u);
  EXPECT_EQ(Sub.weight(Map[1]), 2);
  EXPECT_TRUE(Sub.hasEdge(Map[1], Map[2]));
  EXPECT_FALSE(Sub.hasEdge(Map[1], Map[3]));
}

TEST(GraphTest, NamesRoundTrip) {
  Graph G;
  G.addVertex(1, "x");
  G.addVertex(2);
  EXPECT_EQ(G.name(0), "x");
  EXPECT_EQ(G.name(1), "");
  G.setName(1, "y");
  EXPECT_EQ(G.name(1), "y");
}

TEST(GraphTest, ToDotMentionsVerticesAndEdges) {
  Graph G;
  G.addVertex(1, "a");
  G.addVertex(2, "b");
  G.addEdge(0, 1);
  std::string Dot = G.toDot({0});
  EXPECT_NE(Dot.find("a:1"), std::string::npos);
  EXPECT_NE(Dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(Dot.find("filled"), std::string::npos);
}

TEST(GraphTest, CompressPreservesNeighborOrderDegreesAndEdges) {
  Graph G(5);
  // Deliberately non-sorted insertion order: it must survive compression
  // verbatim (MCS tie-breaking depends on it).
  G.addEdge(0, 3);
  G.addEdge(0, 1);
  G.addEdge(2, 0);
  G.addEdge(4, 2);

  std::vector<std::vector<VertexId>> Before;
  for (VertexId V = 0; V < 5; ++V)
    Before.emplace_back(G.neighbors(V).begin(), G.neighbors(V).end());

  ASSERT_FALSE(G.compressed());
  G.compress();
  ASSERT_TRUE(G.compressed());
  EXPECT_EQ(G.numVertices(), 5u);
  EXPECT_EQ(G.numEdges(), 4u);
  for (VertexId V = 0; V < 5; ++V) {
    NeighborRange N = G.neighbors(V);
    EXPECT_EQ(std::vector<VertexId>(N.begin(), N.end()), Before[V]) << V;
    EXPECT_EQ(G.degree(V), Before[V].size()) << V;
  }
  EXPECT_EQ(G.neighbors(0)[0], 3u); // Insertion order, not sorted order.
  EXPECT_TRUE(G.hasEdge(0, 3));
  EXPECT_TRUE(G.hasEdge(2, 4));
  EXPECT_FALSE(G.hasEdge(1, 2));
  EXPECT_TRUE(G.isStableSet({1, 2}));
  EXPECT_FALSE(G.isStableSet({0, 2}));

  // compress() is idempotent.
  G.compress();
  EXPECT_EQ(G.neighbors(0)[0], 3u);
  EXPECT_EQ(G.numEdges(), 4u);
}

TEST(GraphTest, EdgeListConstructorEqualsAddEdgeThenCompress) {
  // Thousands of vertices too: neither build has a vertex-count cap.
  for (unsigned N : {7u, 4099u}) {
    std::vector<GraphEdge> Edges;
    for (VertexId V = 1; V < N; ++V)
      for (VertexId U = V % 3; U < V; U += 1 + V / 4)
        Edges.push_back(V % 2 ? GraphEdge{U, V} : GraphEdge{V, U});
    std::vector<Weight> Weights(N);
    std::vector<std::string> Names(N);
    Graph Incremental;
    for (VertexId V = 0; V < N; ++V) {
      Weights[V] = V % 13;
      Names[V] = V % 3 ? "v" + std::to_string(V) : "";
      Incremental.addVertex(Weights[V], Names[V]);
    }
    for (const GraphEdge &E : Edges)
      ASSERT_TRUE(Incremental.addEdge(E.U, E.V));
    Incremental.compress();

    Graph Bulk(Weights, Edges, Names);
    ASSERT_TRUE(Bulk.compressed());
    ASSERT_EQ(Bulk.numVertices(), N);
    EXPECT_EQ(Bulk.numEdges(), Edges.size());
    for (VertexId V = 0; V < N; ++V) {
      EXPECT_EQ(Bulk.neighbors(V), Incremental.neighbors(V)) << V;
      EXPECT_EQ(Bulk.weight(V), Incremental.weight(V)) << V;
      EXPECT_EQ(Bulk.name(V), Incremental.name(V)) << V;
    }
    EXPECT_TRUE(Bulk.hasEdge(Edges.back().V, Edges.back().U));
    EXPECT_EQ(Bulk.hasEdge(0, N - 1), Incremental.hasEdge(0, N - 1));
  }
}

TEST(GraphTest, CompressedGraphYieldsInducedSubgraph) {
  Graph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.setWeight(2, 9);
  G.compress();

  std::vector<VertexId> Map;
  Graph Sub = G.inducedSubgraph({1, 2, 3}, &Map);
  EXPECT_EQ(Sub.numEdges(), 2u);
  EXPECT_EQ(Sub.weight(Map[2]), 9);
  EXPECT_TRUE(Sub.hasEdge(Map[1], Map[2]));
  EXPECT_TRUE(Sub.hasEdge(Map[3], Map[2]));
  EXPECT_FALSE(Sub.hasEdge(Map[1], Map[3]));
  EXPECT_EQ(Map[0], ~0u);
}

TEST(GraphTest, IncrementalGrowthKeepsHasEdgeCorrect) {
  // addVertex after construction: hasEdge must agree with a reference
  // edge set throughout.
  Graph G;
  std::vector<std::pair<VertexId, VertexId>> Edges;
  for (unsigned I = 0; I < 200; ++I) {
    VertexId V = G.addVertex(1);
    for (VertexId U = V % 7; U < V; U += 13) {
      ASSERT_TRUE(G.addEdge(U, V));
      Edges.push_back({U, V});
    }
  }
  for (const auto &E : Edges) {
    EXPECT_TRUE(G.hasEdge(E.first, E.second));
    EXPECT_TRUE(G.hasEdge(E.second, E.first));
    EXPECT_FALSE(G.addEdge(E.first, E.second)); // Dedup still works.
  }
  EXPECT_EQ(G.numEdges(), Edges.size());
  EXPECT_FALSE(G.hasEdge(0, 12)); // 12 % 7 = 5, step 13: never inserted.
}

TEST(GraphTest, HasEdgeAndDedupOnLargeIncrementalGraphs) {
  // Thousands of vertices, built up front or grown one by one: hasEdge and
  // the addEdge dedup scan the neighbor lists either way.
  Graph G(4097);
  VertexId Last = 4096;
  G.addEdge(0, Last);
  G.addEdge(1, 2);
  EXPECT_TRUE(G.hasEdge(0, Last));
  EXPECT_TRUE(G.hasEdge(Last, 0));
  EXPECT_TRUE(G.hasEdge(2, 1));
  EXPECT_FALSE(G.hasEdge(0, 1));
  EXPECT_FALSE(G.addEdge(Last, 0));
  EXPECT_EQ(G.numEdges(), 2u);

  Graph H(8);
  H.addEdge(0, 1);
  for (unsigned I = 8; I <= 4096; ++I)
    H.addVertex(0);
  EXPECT_TRUE(H.hasEdge(0, 1));
  H.addEdge(2, 4096);
  EXPECT_TRUE(H.hasEdge(4096, 2));
  EXPECT_FALSE(H.hasEdge(1, 2));
}

TEST(GraphTest, NeighborRangeBasics) {
  Graph G(3);
  G.addEdge(0, 1);
  G.addEdge(0, 2);
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
