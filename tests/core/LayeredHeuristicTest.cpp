//===- tests/core/LayeredHeuristicTest.cpp - LH allocator tests -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/LayeredHeuristic.h"

#include "alloc/BruteForce.h"
#include "graph/Coloring.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

using namespace layra;

namespace {
AllocationProblem generalProblemFromGraph(Graph G, unsigned R) {
  // Constraints: all edges as 2-cliques plus singletons (fromGeneralGraph
  // adds singletons for isolated vertices).  For feasibility checking we
  // want the true "colorability" notion, which LH guarantees by
  // construction; edge constraints only matter for R == 1.
  std::vector<std::vector<VertexId>> Sets;
  for (VertexId V = 0; V < G.numVertices(); ++V)
    for (VertexId U : G.neighbors(V))
      if (V < U)
        Sets.push_back({V, U});
  return AllocationProblem::fromGeneralGraph(std::move(G), {R}, {},
                                             std::move(Sets));
}
} // namespace

TEST(LayeredHeuristicTest, ClustersPartitionAllVertices) {
  Rng R(11);
  Graph G = randomGraph(R, 40, 0.25, 20);
  std::vector<Cluster> Clusters = clusterVertices(G);
  std::vector<unsigned> SeenCount(G.numVertices(), 0);
  for (const Cluster &C : Clusters) {
    EXPECT_TRUE(G.isStableSet(C.Members));
    EXPECT_EQ(G.weightOf(C.Members), C.TotalWeight);
    for (VertexId V : C.Members)
      ++SeenCount[V];
  }
  for (unsigned Count : SeenCount)
    EXPECT_EQ(Count, 1u);
}

TEST(LayeredHeuristicTest, FirstClusterContainsHeaviestVertex) {
  Rng R(12);
  Graph G = randomGraph(R, 30, 0.3, 50);
  VertexId Heaviest = 0;
  for (VertexId V = 1; V < G.numVertices(); ++V)
    if (G.weight(V) > G.weight(Heaviest))
      Heaviest = V;
  std::vector<Cluster> Clusters = clusterVertices(G);
  const std::vector<VertexId> &First = Clusters.front().Members;
  EXPECT_NE(std::find(First.begin(), First.end(), Heaviest), First.end());
}

TEST(LayeredHeuristicTest, AllocationIsAnRColoringByConstruction) {
  // LH's headline property on non-chordal graphs: the allocated set is
  // partitioned into <= R stable clusters, i.e. it is R-colorable even when
  // the graph is not.
  Rng R(13);
  for (int Round = 0; Round < 20; ++Round) {
    Graph G = randomGraph(R, 25 + static_cast<unsigned>(R.nextBelow(25)),
                          0.25, 30);
    unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(6));
    AllocationProblem P = generalProblemFromGraph(G, Regs);
    LayeredHeuristicResult Out = layeredHeuristicAllocate(P);
    // RegisterOf is a proper coloring with < R colors on allocated set.
    EXPECT_TRUE(isProperColoring(P.graph(), Out.RegisterOf));
    for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
      if (Out.Allocation.Allocated[V]) {
        EXPECT_LT(Out.RegisterOf[V], Regs);
      } else {
        EXPECT_EQ(Out.RegisterOf[V], LayeredHeuristicResult::kNoRegister);
      }
    }
  }
}

TEST(LayeredHeuristicTest, EnoughRegistersAllocateEverything) {
  Rng R(14);
  Graph G = randomGraph(R, 30, 0.2, 10);
  AllocationProblem P = generalProblemFromGraph(G, 30);
  LayeredHeuristicResult Out = layeredHeuristicAllocate(P);
  EXPECT_EQ(Out.Allocation.SpillCost, 0);
  EXPECT_LE(Out.NumClusters, 30u);
}

TEST(LayeredHeuristicTest, ReasonableOnSmallGraphsVsOptimal) {
  // LH is a heuristic; on small instances it should stay within 2x of the
  // edge-constraint optimum in aggregate (in practice much closer).
  Rng R(15);
  Weight TotalOpt = 0, TotalLh = 0;
  for (int Round = 0; Round < 30; ++Round) {
    Graph G = randomGraph(R, 6 + static_cast<unsigned>(R.nextBelow(12)),
                          0.3, 20);
    unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(4));
    AllocationProblem P = generalProblemFromGraph(G, Regs);
    LayeredHeuristicResult Out = layeredHeuristicAllocate(P);
    TotalLh += Out.Allocation.SpillCost;
    BruteForceAllocator Brute;
    // Brute force over *coloring* feasibility is hard; use the relaxation
    // (edge/point constraints) as the lower bound reference.
    TotalOpt += Brute.allocate(P).SpillCost;
  }
  EXPECT_LE(TotalLh, 2 * TotalOpt + 50);
}

TEST(LayeredHeuristicTest, WorksOnChordalInstancesToo) {
  Rng R(16);
  ChordalGenOptions Opt;
  Opt.NumVertices = 30;
  Graph G = randomChordalGraph(R, Opt);
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {4});
  LayeredHeuristicResult Out = layeredHeuristicAllocate(P);
  EXPECT_TRUE(isFeasibleAllocation(P, Out.Allocation.Allocated));
}
