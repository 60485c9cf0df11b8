//===- tests/core/PropertySweepTest.cpp - Parameterized invariants --------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized property sweeps over (seed, register count) grids: the
/// invariants every allocator must satisfy on every instance, exercised
/// across a matrix of random chordal instances.
///
//===----------------------------------------------------------------------===//

#include "alloc/Allocator.h"
#include "alloc/OptimalBnB.h"
#include "core/Assignment.h"
#include "core/Coalescing.h"
#include "core/Layered.h"
#include "core/LayeredHeuristic.h"
#include "core/StepLayer.h"
#include "graph/Generators.h"
#include "graph/StableSet.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace layra;

namespace {
/// (seed, register count) sweep parameter.
struct SweepParam {
  uint64_t Seed;
  unsigned Regs;

  friend std::ostream &operator<<(std::ostream &Os, const SweepParam &P) {
    return Os << "seed" << P.Seed << "_R" << P.Regs;
  }
};

class ChordalSweep : public ::testing::TestWithParam<SweepParam> {
protected:
  AllocationProblem makeInstance() const {
    Rng R(GetParam().Seed);
    ChordalGenOptions Opt;
    Opt.NumVertices = 20 + static_cast<unsigned>(R.nextBelow(60));
    Opt.TreeSize = 20 + static_cast<unsigned>(R.nextBelow(40));
    Opt.MaxWeight = 50;
    Graph G = randomChordalGraph(R, Opt);
    return AllocationProblem::fromChordalGraph(std::move(G),
                                               {GetParam().Regs});
  }

  /// Synthetic affinities for the coalescing sweeps: random non-adjacent
  /// pairs with positive benefits (move-related values never interfere).
  std::vector<Affinity> makeAffinities(const AllocationProblem &P) const {
    Rng R(GetParam().Seed ^ 0xaff1u);
    std::vector<Affinity> Out;
    unsigned N = P.graph().numVertices();
    for (unsigned Trial = 0; Trial < N; ++Trial) {
      VertexId A = static_cast<VertexId>(R.nextBelow(N));
      VertexId B = static_cast<VertexId>(R.nextBelow(N));
      if (A == B || P.graph().hasEdge(A, B))
        continue;
      Affinity Aff;
      Aff.A = A;
      Aff.B = B;
      Aff.Benefit = 1 + static_cast<Weight>(R.nextBelow(20));
      Out.push_back(Aff);
    }
    return Out;
  }
};
} // namespace

TEST_P(ChordalSweep, EveryLayeredVariantIsFeasible) {
  AllocationProblem P = makeInstance();
  for (auto Opts : {LayeredOptions::nl(), LayeredOptions::bl(),
                    LayeredOptions::fpl(), LayeredOptions::bfpl()}) {
    AllocationResult Result = layeredAllocate(P, Opts);
    EXPECT_TRUE(isFeasibleAllocation(P, Result.Allocated));
    EXPECT_EQ(Result.AllocatedWeight + Result.SpillCost, P.graph().totalWeight());
  }
}

TEST_P(ChordalSweep, FixedPointNeverHurtsAndOptimalNeverLoses) {
  AllocationProblem P = makeInstance();
  Weight Nl = layeredAllocate(P, LayeredOptions::nl()).SpillCost;
  Weight Fpl = layeredAllocate(P, LayeredOptions::fpl()).SpillCost;
  Weight Bl = layeredAllocate(P, LayeredOptions::bl()).SpillCost;
  Weight Bfpl = layeredAllocate(P, LayeredOptions::bfpl()).SpillCost;
  EXPECT_LE(Fpl, Nl);
  EXPECT_LE(Bfpl, Bl);
  OptimalBnBAllocator BnB;
  AllocationResult Optimal = BnB.allocate(P);
  if (Optimal.Proven) {
    EXPECT_LE(Optimal.SpillCost, Nl);
    EXPECT_LE(Optimal.SpillCost, Bfpl);
    EXPECT_LE(Optimal.SpillCost,
              layeredHeuristicAllocate(P).Allocation.SpillCost);
    EXPECT_LE(Optimal.SpillCost, makeAllocator("gc")->allocate(P).SpillCost);
  }
}

TEST_P(ChordalSweep, AssignmentSucceedsForFeasibleAllocations) {
  AllocationProblem P = makeInstance();
  AllocationResult Result = layeredAllocate(P, LayeredOptions::bfpl());
  Assignment A = assignRegisters(P, Result.Allocated);
  EXPECT_TRUE(A.Success);
  EXPECT_LE(A.RegistersUsed, P.uniformBudget());
}

TEST_P(ChordalSweep, LayeredIsDeterministic) {
  AllocationProblem P = makeInstance();
  AllocationResult A = layeredAllocate(P, LayeredOptions::bfpl());
  AllocationResult B = layeredAllocate(P, LayeredOptions::bfpl());
  EXPECT_EQ(A.Allocated, B.Allocated);
}

TEST_P(ChordalSweep, CoalescingOffAndOnBothAssignValidly) {
  AllocationProblem P = makeInstance();
  AllocationResult Result = layeredAllocate(P, LayeredOptions::bfpl());
  std::vector<Affinity> Affinities = makeAffinities(P);

  // Coalescing off (plain tree-scan) and on (affinity-biased): both must
  // produce proper colorings within the register budget...
  Assignment Plain = assignRegisters(P, Result.Allocated);
  Assignment Biased = assignRegistersBiased(P, Result.Allocated, Affinities);
  for (const Assignment *A : {&Plain, &Biased}) {
    EXPECT_TRUE(A->Success);
    EXPECT_LE(A->RegistersUsed, P.uniformBudget());
    for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
      if (!Result.Allocated[V])
        continue;
      for (VertexId U : P.graph().neighbors(V))
        if (Result.Allocated[U]) {
          EXPECT_NE(A->RegisterOf[V], A->RegisterOf[U])
              << "interfering pair shares a register";
        }
    }
  }
  // ...and the bias may only reduce the leftover copy cost, never spill
  // more (it does not touch the allocation at all).
  EXPECT_LE(remainingCopyCost(Affinities, Result.Allocated,
                              Biased.RegisterOf),
            remainingCopyCost(Affinities, Result.Allocated,
                              Plain.RegisterOf));
}

INSTANTIATE_TEST_SUITE_P(
    SeedByRegisterGrid, ChordalSweep,
    ::testing::ValuesIn([] {
      std::vector<SweepParam> Params;
      for (uint64_t Seed : {11u, 22u, 33u, 44u, 55u, 66u})
        for (unsigned Regs : {1u, 2u, 3u, 5u, 8u, 13u})
          Params.push_back({Seed, Regs});
      return Params;
    }()),
    [](const ::testing::TestParamInfo<SweepParam> &Info) {
      return "seed" + std::to_string(Info.param.Seed) + "_R" +
             std::to_string(Info.param.Regs);
    });

namespace {
/// Step parameter sweep: the step-k layer primitive must stay feasible and
/// monotonically use up register capacity.
class StepSweep : public ::testing::TestWithParam<unsigned> {};
} // namespace

TEST_P(StepSweep, SteppedLayeredIsFeasibleAcrossSeeds) {
  unsigned Step = GetParam();
  Rng R(1000 + Step);
  for (int Round = 0; Round < 8; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 15 + static_cast<unsigned>(R.nextBelow(25));
    Graph G = randomChordalGraph(R, Opt);
    unsigned Regs = Step + static_cast<unsigned>(R.nextBelow(6));
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {Regs});
    LayeredOptions Opts;
    Opts.Step = Step;
    AllocationResult Result = layeredAllocate(P, Opts);
    EXPECT_TRUE(isFeasibleAllocation(P, Result.Allocated))
        << "step=" << Step << " round=" << Round;
  }
}

TEST_P(StepSweep, BoundedLayerRespectsBoundAndGrowsWithIt) {
  unsigned Step = GetParam();
  Rng R(5000 + Step);
  for (int Round = 0; Round < 6; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 12 + static_cast<unsigned>(R.nextBelow(20));
    Graph G = randomChordalGraph(R, Opt);
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {1});
    unsigned N = P.graph().numVertices();
    std::vector<char> Mask(N, 1);
    std::vector<Weight> W(N);
    for (VertexId V = 0; V < N; ++V)
      W[V] = P.graph().weight(V);

    auto LayerWeight = [&](const std::vector<VertexId> &Layer) {
      Weight Total = 0;
      for (VertexId V : Layer)
        Total += W[V];
      return Total;
    };

    std::vector<VertexId> Layer = optimalBoundedLayer(P, Mask, W, Step);
    // Every maximal clique gains at most Step vertices.
    for (unsigned K = 0; K < P.Cliques.numCliques(); ++K) {
      unsigned Hit = 0;
      for (VertexId V : P.Cliques.clique(K))
        Hit += std::count(Layer.begin(), Layer.end(), V) ? 1 : 0;
      EXPECT_LE(Hit, Step) << "step=" << Step << " round=" << Round;
    }
    // A looser bound can only improve the optimal layer weight.
    if (Step > 1) {
      std::vector<VertexId> Tighter =
          optimalBoundedLayer(P, Mask, W, Step - 1);
      EXPECT_LE(LayerWeight(Tighter), LayerWeight(Layer))
          << "step=" << Step << " round=" << Round;
    }
  }
}

TEST_P(StepSweep, BoundOneMatchesFranksStableSetPath) {
  // Cross-validation of the two Bound == 1 solvers: the clique-tree DP and
  // Frank's linear-time algorithm optimize the same objective, so their
  // layer *weights* must agree exactly -- on the full vertex set and on
  // masked subsets (the mid-run candidate sets of the layered allocator).
  unsigned Seed = 7000 + GetParam(); // Sweep seeds via the step parameter.
  Rng R(Seed);
  for (int Round = 0; Round < 6; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 12 + static_cast<unsigned>(R.nextBelow(20));
    Graph G = randomChordalGraph(R, Opt);
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {1});
    unsigned N = P.graph().numVertices();
    std::vector<Weight> W(N);
    for (VertexId V = 0; V < N; ++V)
      W[V] = P.graph().weight(V);

    std::vector<char> Mask(N, 1);
    for (int MaskRound = 0; MaskRound < 3; ++MaskRound) {
      std::vector<VertexId> Dp = optimalBoundedLayer(P, Mask, W, 1);
      StableSetResult Frank =
          maximumWeightedStableSetChordal(P.graph(), P.Peo, W, Mask);
      Weight DpWeight = 0;
      for (VertexId V : Dp) {
        EXPECT_TRUE(Mask[V]) << "DP selected a masked-out vertex";
        DpWeight += W[V];
      }
      EXPECT_TRUE(P.graph().isStableSet(Dp)) << "seed=" << Seed;
      EXPECT_EQ(DpWeight, Frank.TotalWeight) << "seed=" << Seed;
      // Knock random vertices out of the mask for the next round.
      for (unsigned Knock = 0; Knock < N / 4; ++Knock)
        Mask[R.nextBelow(N)] = 0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Steps, StepSweep, ::testing::Values(1u, 2u, 3u));
