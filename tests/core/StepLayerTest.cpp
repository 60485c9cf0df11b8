//===- tests/core/StepLayerTest.cpp - Clique-tree DP tests ----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/StepLayer.h"

#include "alloc/BruteForce.h"
#include "graph/Generators.h"
#include "graph/StableSet.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace layra;

namespace {
std::vector<Weight> rawWeights(const Graph &G) {
  std::vector<Weight> W(G.numVertices());
  for (VertexId V = 0; V < G.numVertices(); ++V)
    W[V] = G.weight(V);
  return W;
}
} // namespace

TEST(StepLayerTest, BoundOneMatchesFranksAlgorithm) {
  Rng R(1001);
  for (int Round = 0; Round < 40; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 3 + static_cast<unsigned>(R.nextBelow(25));
    Graph G = randomChordalGraph(R, Opt);
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {1});
    std::vector<char> Mask(G.numVertices(), 1);
    std::vector<Weight> W = rawWeights(G);
    std::vector<VertexId> Layer = optimalBoundedLayer(P, Mask, W, 1);
    StableSetResult Frank =
        maximumWeightedStableSetChordal(G, P.Peo, W);
    EXPECT_EQ(G.weightOf(Layer), Frank.TotalWeight) << "round " << Round;
    EXPECT_TRUE(G.isStableSet(Layer));
  }
}

TEST(StepLayerTest, MatchesBruteForceForBoundTwoAndThree) {
  // The DP result for bound k is the optimal allocation with k registers
  // (paper §2.2 / Bouchez et al.): certify against exhaustive search.
  Rng R(2002);
  for (int Round = 0; Round < 40; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 4 + static_cast<unsigned>(R.nextBelow(14));
    Opt.MaxWeight = 25;
    Graph G = randomChordalGraph(R, Opt);
    unsigned Bound = 2 + static_cast<unsigned>(R.nextBelow(2)); // 2 or 3.
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {Bound});
    std::vector<char> Mask(G.numVertices(), 1);
    std::vector<VertexId> Layer =
        optimalBoundedLayer(P, Mask, rawWeights(G), Bound);

    BruteForceAllocator Brute;
    AllocationResult Optimal = Brute.allocate(P);
    EXPECT_EQ(G.weightOf(Layer), Optimal.AllocatedWeight)
        << "round " << Round << " bound " << Bound;
    // Feasibility of the DP's own set.
    AllocationResult AsResult = AllocationResult::fromAllocatedSet(G, Layer);
    EXPECT_TRUE(isFeasibleAllocation(P, AsResult.Allocated));
  }
}

TEST(StepLayerTest, MaskExcludesVertices) {
  // Triangle with one masked vertex: the layer may only use the others.
  Graph G({10, 5, 3}, {{0, 1}, {1, 2}, {0, 2}});
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {1});
  std::vector<char> Mask{0, 1, 1}; // Vertex 0 not a candidate.
  std::vector<VertexId> Layer =
      optimalBoundedLayer(P, Mask, {10, 5, 3}, 1);
  EXPECT_EQ(Layer, std::vector<VertexId>{1});
}

TEST(StepLayerTest, DisconnectedComponentsAllContribute) {
  // Two disjoint edges: bound 1 takes the heavier endpoint of each.
  Graph G({2, 9, 7, 1}, {{0, 1}, {2, 3}});
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {1});
  std::vector<char> Mask(4, 1);
  std::vector<VertexId> Layer =
      optimalBoundedLayer(P, Mask, {2, 9, 7, 1}, 1);
  EXPECT_EQ(Layer, (std::vector<VertexId>{1, 2}));
}

TEST(StepLayerTest, BoundLargerThanCliquesTakesEverything) {
  Rng R(3003);
  ChordalGenOptions Opt;
  Opt.NumVertices = 15;
  Opt.SubtreeSpread = 0.1; // Sparse: small cliques.
  Graph G = randomChordalGraph(R, Opt);
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {3});
  if (P.maxLive() <= 3) {
    std::vector<char> Mask(G.numVertices(), 1);
    std::vector<VertexId> Layer =
        optimalBoundedLayer(P, Mask, rawWeights(G), 3);
    EXPECT_EQ(Layer.size(), G.numVertices());
  }
}

TEST(StepLayerTest, EstimateSaturatesOnHugeCliquesInsteadOfOverflowing) {
  // estimateBoundedLayerStates only reads the clique cover, so a huge
  // clique can be declared directly without materialising its O(M^2)
  // edges.  C(20000, 8) is ~3e25: without the saturation clamp the
  // accumulating double would sail past any sensible threshold and the
  // exact solver's DP-vs-ILP dispatch would misbehave.
  AllocationProblem P;
  P.Chordal = true;
  std::vector<VertexId> Huge(20000);
  for (VertexId V = 0; V < Huge.size(); ++V)
    Huge[V] = V;
  P.Cliques = CliqueCover(20000, {0, 20000}, Huge);

  double Estimate = estimateBoundedLayerStates(P, /*Mask=*/{}, /*Bound=*/8);
  EXPECT_EQ(Estimate, 1e18);

  // The per-clique Term/Count loop must saturate, not overflow to inf.
  EXPECT_TRUE(std::isfinite(Estimate));

  // Saturation also triggers on *accumulated* totals: many moderate
  // cliques whose individual counts stay below the cap.
  AllocationProblem Many;
  Many.Chordal = true;
  std::vector<VertexId> Mid(400);
  for (VertexId V = 0; V < Mid.size(); ++V)
    Mid[V] = V;
  // C(400, 8) ~ 1.6e16 per clique; 100 cliques push the sum over 1e18.
  std::vector<uint32_t> Offsets{0};
  std::vector<VertexId> Members;
  for (int K = 0; K < 100; ++K) {
    Members.insert(Members.end(), Mid.begin(), Mid.end());
    Offsets.push_back(static_cast<uint32_t>(Members.size()));
  }
  Many.Cliques = CliqueCover(400, std::move(Offsets), std::move(Members));
  EXPECT_EQ(estimateBoundedLayerStates(Many, {}, 8), 1e18);

  // A respected mask keeps the same clique affordable.
  std::vector<char> Mask(20000, 0);
  for (VertexId V = 0; V < 10; ++V)
    Mask[V] = 1;
  double Small = estimateBoundedLayerStates(P, Mask, 8);
  EXPECT_LT(Small, 2048.0); // Sum of C(10, 0..8) < 2^10.
  EXPECT_GT(Small, 1.0);
}

TEST(StepLayerTest, EstimateSaturatesPastSixtyFourCliqueMembers) {
  // The DP keeps each bag as a 64-bit mask, so a clique with 65 unmasked
  // members has no table at any bound, however small its binomial count.
  auto CliqueOf = [](unsigned Size) {
    AllocationProblem P;
    P.Chordal = true;
    std::vector<VertexId> Members(Size);
    for (VertexId V = 0; V < Size; ++V)
      Members[V] = V;
    P.Cliques = CliqueCover(Size, {0, Size}, Members);
    return P;
  };
  AllocationProblem Wide = CliqueOf(65);
  EXPECT_EQ(estimateBoundedLayerStates(Wide, {}, 1), 1e18);
  EXPECT_EQ(estimateBoundedLayerStates(Wide, {}, 2), 1e18);
  // Masking one member off brings the bag back within reach.
  std::vector<char> Mask(65, 1);
  Mask[0] = 0;
  EXPECT_EQ(estimateBoundedLayerStates(Wide, Mask, 1), 65.0);
  EXPECT_EQ(estimateBoundedLayerStates(CliqueOf(64), {}, 1), 65.0);
}
