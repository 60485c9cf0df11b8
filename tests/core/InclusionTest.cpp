//===- tests/core/InclusionTest.cpp - Spill-set inclusion (Figure 2) ------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper §2.3 / Figure 2: optimal spill sets are *not* monotone in the
/// register count in general (the counter-example), yet inclusion holds for
/// the overwhelming majority of real instances -- which is why stepwise
/// (layered) allocation is quasi-optimal.
///
//===----------------------------------------------------------------------===//

#include "alloc/BruteForce.h"
#include "core/Layered.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

#include <set>

using namespace layra;

namespace {
/// A 5-vertex counter-example in the spirit of Figure 2: path a-b-c-d-e
/// plus chord b-d, weights a=3 b=4 c=2 d=4 e=3.
Graph counterExampleGraph() {
  // a..e are vertices 0..4.
  return Graph({3, 4, 2, 4, 3}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}});
}

std::set<VertexId> optimalSpillSet(const Graph &G, unsigned R) {
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {R});
  BruteForceAllocator Brute;
  AllocationResult Result = Brute.allocate(P);
  std::vector<VertexId> Spilled = Result.spilled();
  return std::set<VertexId>(Spilled.begin(), Spilled.end());
}
} // namespace

TEST(InclusionTest, Figure2CounterExample) {
  Graph G = counterExampleGraph();
  ASSERT_TRUE(isChordal(G));

  // R = 1: the optimum keeps the stable set {a, c, e} (weight 8) and
  // spills {b, d} (cost 8); every alternative keeps less.
  std::set<VertexId> SpillR1 = optimalSpillSet(G, 1);
  EXPECT_EQ(SpillR1, (std::set<VertexId>{1, 3}));

  // R = 2: the triangle {b, c, d} must lose one member; c is cheapest, so
  // the optimum spills exactly {c}.
  std::set<VertexId> SpillR2 = optimalSpillSet(G, 2);
  EXPECT_EQ(SpillR2, (std::set<VertexId>{2}));

  // The counter-example: spilled(R=2) is NOT a subset of spilled(R=1).
  EXPECT_FALSE(std::includes(SpillR1.begin(), SpillR1.end(),
                             SpillR2.begin(), SpillR2.end()));
}

TEST(InclusionTest, InclusionHoldsForMostRandomInstances) {
  // §2.3 reports inclusion holding for 99.83% of methods.  On random small
  // chordal graphs we verify the property holds for the vast majority
  // (>= 90%) of (instance, R) pairs with unique optima.
  Rng R(65537);
  unsigned Holds = 0, Total = 0;
  for (int Round = 0; Round < 80; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 6 + static_cast<unsigned>(R.nextBelow(10));
    Opt.MaxWeight = 40;
    Graph G = randomChordalGraph(R, Opt);
    std::set<VertexId> Previous; // Spill set at R+1.
    unsigned MaxLive =
        AllocationProblem::fromChordalGraph(G, {1}).maxLive();
    if (MaxLive < 2)
      continue;
    // Compare consecutive register counts downward: allocated(R) should
    // contain allocated(R-1), i.e. spilled(R-1) contains spilled(R).
    for (unsigned Regs = MaxLive; Regs >= 1; --Regs) {
      std::set<VertexId> Spill = optimalSpillSet(G, Regs);
      if (Regs != MaxLive) {
        ++Total;
        // Previous = spilled at Regs+1 must be included in Spill (at Regs).
        Holds += std::includes(Spill.begin(), Spill.end(), Previous.begin(),
                               Previous.end())
                     ? 1
                     : 0;
      }
      Previous = std::move(Spill);
    }
  }
  ASSERT_GT(Total, 50u);
  EXPECT_GT(static_cast<double>(Holds) / static_cast<double>(Total), 0.90)
      << Holds << "/" << Total;
}

TEST(InclusionTest, LayeredIsExactWhenInclusionHolds) {
  // On the counter-example, stepwise allocation cannot be optimal for both
  // register counts; verify the gap appears exactly at R = 2.
  Graph G = counterExampleGraph();
  AllocationProblem P1 = AllocationProblem::fromChordalGraph(G, {1});
  AllocationProblem P2 = AllocationProblem::fromChordalGraph(G, {2});
  BruteForceAllocator Brute;

  AllocationResult L1 = layeredAllocate(P1, LayeredOptions::bfpl());
  EXPECT_EQ(L1.SpillCost, Brute.allocate(P1).SpillCost); // R=1 exact.

  AllocationResult L2 = layeredAllocate(P2, LayeredOptions::bfpl());
  AllocationResult O2 = Brute.allocate(P2);
  // Layer 1 keeps {a,c,e}; the best completion spills {b,d} (cost 8) while
  // the true optimum spills {c} (cost 2): the documented stepwise gap.
  EXPECT_GT(L2.SpillCost, O2.SpillCost);
}
