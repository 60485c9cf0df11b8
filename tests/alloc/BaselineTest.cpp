//===- tests/alloc/BaselineTest.cpp - GC / LS / BLS tests -----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "alloc/GraphColoring.h"
#include "alloc/LinearScan.h"

#include "alloc/Allocator.h"
#include "alloc/OptimalBnB.h"
#include "core/ProblemBuilder.h"
#include "graph/Coloring.h"
#include "graph/Generators.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace layra;

TEST(GraphColoringTest, ProducesProperColoringWithinR) {
  Rng R(61);
  for (int Round = 0; Round < 25; ++Round) {
    Graph G = randomGraph(R, 20 + static_cast<unsigned>(R.nextBelow(30)),
                          0.25, 30);
    unsigned Regs = 2 + static_cast<unsigned>(R.nextBelow(6));
    AllocationProblem P =
        AllocationProblem::fromGeneralGraph(G, {Regs}, {}, {});
    GraphColoringAllocator GC;
    AllocationResult Result = GC.allocate(P);
    std::vector<unsigned> Colors = chaitinBriggsColoring(P.graph(), Regs);
    EXPECT_TRUE(isProperColoring(P.graph(), Colors));
    for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
      if (Result.Allocated[V]) {
        EXPECT_LT(Colors[V], Regs);
      } else {
        EXPECT_EQ(Colors[V], ~0u);
      }
    }
  }
}

TEST(GraphColoringTest, ColorsEverythingWhenDegreesAreLow) {
  // A tree has degeneracy 1: 2 registers always suffice.
  std::vector<GraphEdge> Edges;
  for (VertexId V = 1; V < 10; ++V)
    Edges.push_back({V, (V - 1) / 2});
  Graph G(std::vector<Weight>(10, 5), Edges);
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {2});
  GraphColoringAllocator GC;
  EXPECT_EQ(GC.allocate(P).SpillCost, 0);
}

TEST(GraphColoringTest, SpillsOnKPlusOneClique) {
  // K4 with 3 registers: exactly one vertex must spill, the cheapest one
  // by cost/degree (all degrees equal => cheapest cost).
  std::vector<GraphEdge> Edges;
  for (VertexId A = 0; A < 4; ++A)
    for (VertexId B = A + 1; B < 4; ++B)
      Edges.push_back({A, B});
  Graph G({10, 2, 8, 9}, Edges);
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {3});
  GraphColoringAllocator GC;
  AllocationResult Result = GC.allocate(P);
  EXPECT_EQ(Result.SpillCost, 2);
  EXPECT_FALSE(Result.Allocated[1]);
}

TEST(GraphColoringTest, OptimisticColoringBeatsPessimism) {
  // Diamond (C4 + no chord is 2-colorable but Chaitin's rule would push a
  // node at R=2 since all degrees are 2): optimism must color everything.
  Graph G({7, 7, 7, 7}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  AllocationProblem P = AllocationProblem::fromGeneralGraph(G, {2}, {}, {});
  GraphColoringAllocator GC;
  EXPECT_EQ(GC.allocate(P).SpillCost, 0);
}

namespace {
AllocationProblem ssaProblem(Rng &R, unsigned Regs) {
  ProgramGenOptions Opt;
  Opt.NumVars = 14;
  Opt.MaxBlocks = 28;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  return buildSsaProblem(Conv.Ssa, ST231, {Regs});
}
} // namespace

TEST(LinearScanTest, RespectsIntervalCapacity) {
  Rng R(62);
  for (int Round = 0; Round < 15; ++Round) {
    unsigned Regs = 2 + static_cast<unsigned>(R.nextBelow(6));
    AllocationProblem P = ssaProblem(R, Regs);
    ASSERT_TRUE(P.Intervals.has_value());
    for (const char *Name : {"ls", "bls"}) {
      auto LS = makeAllocator(Name);
      AllocationResult Result = LS->allocate(P);
      // Allocated intervals never exceed R simultaneously.
      std::vector<LiveInterval> Kept;
      for (const LiveInterval &I : P.Intervals->Intervals)
        if (Result.Allocated[I.V])
          Kept.push_back(I);
      LiveIntervalTable Sub;
      Sub.Intervals = Kept;
      EXPECT_LE(Sub.maxOverlap(), Regs) << Name << " round " << Round;
    }
  }
}

TEST(LinearScanTest, CostAwareBlsBeatsBlindLsOnJitWorkload) {
  // On the JIT-shaped workload (the paper's Figure 14 setting) cost-aware
  // BLS clearly beats the cost-blind policy, and the gap widens with the
  // register count (DLS keeps spilling hot intervals it should not).
  Suite S = makeSpecJvm98();
  for (unsigned Regs : {4u, 8u}) {
    Weight TotalLs = 0, TotalBls = 0;
    for (const NamedProblem &NP : generalProblems(S, ARMv7, {Regs})) {
      TotalLs += makeAllocator("ls")->allocate(NP.P).SpillCost;
      TotalBls += makeAllocator("bls")->allocate(NP.P).SpillCost;
    }
    EXPECT_LT(TotalBls, TotalLs) << "R=" << Regs;
  }
}

TEST(LinearScanTest, EnoughRegistersSpillNothing) {
  Rng R(64);
  AllocationProblem P = ssaProblem(R, 64);
  EXPECT_EQ(makeAllocator("ls")->allocate(P).SpillCost, 0);
  EXPECT_EQ(makeAllocator("bls")->allocate(P).SpillCost, 0);
}

namespace {
/// A problem whose interval table is exactly \p Ivs (in increasing Start
/// order), with interference edges between every overlapping pair so the
/// instance is self-consistent.
AllocationProblem intervalProblem(std::vector<LiveInterval> Ivs,
                                  unsigned Regs) {
  std::vector<Weight> Weights(Ivs.size());
  std::vector<GraphEdge> Edges;
  unsigned MaxEnd = 0;
  for (size_t I = 0; I < Ivs.size(); ++I) {
    Weights[Ivs[I].V] = Ivs[I].Cost;
    MaxEnd = std::max(MaxEnd, Ivs[I].End);
    for (size_t J = 0; J < I; ++J)
      if (Ivs[I].overlaps(Ivs[J]))
        Edges.push_back({Ivs[I].V, Ivs[J].V});
  }
  AllocationProblem P = AllocationProblem::fromGeneralGraph(
      Graph(std::move(Weights), Edges), {Regs}, {}, {});
  LiveIntervalTable Table;
  Table.Intervals = std::move(Ivs);
  Table.NumPoints = MaxEnd + 1;
  P.Intervals = std::move(Table);
  return P;
}
} // namespace

TEST(CostBeladyTest, SpillsCurrentWhenNoActiveIntervalIsEligible) {
  // Active interval costs 100, current costs 10: with threshold 0.25 the
  // limit is 12.5, so the active interval is ineligible and the *current*
  // interval spills -- even though it ends first.  Cost-blind LS would
  // evict the long expensive interval instead.
  AllocationProblem P = intervalProblem(
      {{/*V=*/0, /*Start=*/0, /*End=*/100, /*Cost=*/100},
       {/*V=*/1, /*Start=*/10, /*End=*/20, /*Cost=*/10}},
      /*Regs=*/1);
  LinearScanAllocator Bls(LinearScanAllocator::PolicyKind::CostBelady, 0.25);
  AllocationResult R = Bls.allocate(P);
  EXPECT_TRUE(R.Allocated[0]);
  EXPECT_FALSE(R.Allocated[1]);
  EXPECT_EQ(R.SpillCost, 10);

  LinearScanAllocator Ls(LinearScanAllocator::PolicyKind::FurthestEnd);
  AllocationResult Blind = Ls.allocate(P);
  EXPECT_FALSE(Blind.Allocated[0]);
  EXPECT_TRUE(Blind.Allocated[1]);
  EXPECT_EQ(Blind.SpillCost, 100);
}

TEST(CostBeladyTest, EvictsCheapActiveWhenCurrentIsIneligible) {
  // The cheap interval is active and the expensive one arrives: the
  // current interval is over the threshold but the cheapest candidate is
  // always eligible, so the active interval is evicted and the expensive
  // value keeps its register.
  AllocationProblem P = intervalProblem(
      {{/*V=*/0, /*Start=*/0, /*End=*/50, /*Cost=*/10},
       {/*V=*/1, /*Start=*/5, /*End=*/100, /*Cost=*/100}},
      /*Regs=*/1);
  LinearScanAllocator Bls(LinearScanAllocator::PolicyKind::CostBelady, 0.25);
  AllocationResult R = Bls.allocate(P);
  EXPECT_FALSE(R.Allocated[0]);
  EXPECT_TRUE(R.Allocated[1]);
  EXPECT_EQ(R.SpillCost, 10);
}

TEST(CostBeladyTest, EqualCostsFallBackToFurthestEnd) {
  // All candidates cost the same, so every one is within the threshold and
  // the Belady rule decides: the interval ending furthest is evicted.
  AllocationProblem P = intervalProblem(
      {{/*V=*/0, /*Start=*/0, /*End=*/100, /*Cost=*/50},
       {/*V=*/1, /*Start=*/10, /*End=*/20, /*Cost=*/50}},
      /*Regs=*/1);
  LinearScanAllocator Bls(LinearScanAllocator::PolicyKind::CostBelady, 0.25);
  AllocationResult R = Bls.allocate(P);
  EXPECT_FALSE(R.Allocated[0]);
  EXPECT_TRUE(R.Allocated[1]);
}

TEST(CostBeladyTest, EqualCostEqualEndTieKeepsActiveInterval) {
  // Exact tie on cost *and* end point: eviction requires a strictly later
  // end, so the already-active interval keeps its register and the current
  // one spills -- deterministically.
  AllocationProblem P = intervalProblem(
      {{/*V=*/0, /*Start=*/0, /*End=*/30, /*Cost=*/50},
       {/*V=*/1, /*Start=*/10, /*End=*/30, /*Cost=*/50}},
      /*Regs=*/1);
  LinearScanAllocator Bls(LinearScanAllocator::PolicyKind::CostBelady, 0.25);
  AllocationResult R = Bls.allocate(P);
  EXPECT_TRUE(R.Allocated[0]);
  EXPECT_FALSE(R.Allocated[1]);
}

TEST(CostBeladyTest, ThresholdBoundaryIsInclusive) {
  // MinCost 4, threshold 0.25 -> limit 5.0 exactly.  An active interval
  // costing 5 is still eligible (<=), so its later end gets it evicted; at
  // cost 6 it drops out and the current interval spills instead.
  for (Weight ActiveCost : {Weight(5), Weight(6)}) {
    AllocationProblem P = intervalProblem(
        {{/*V=*/0, /*Start=*/0, /*End=*/100, /*Cost=*/ActiveCost},
         {/*V=*/1, /*Start=*/10, /*End=*/20, /*Cost=*/4}},
        /*Regs=*/1);
    LinearScanAllocator Bls(LinearScanAllocator::PolicyKind::CostBelady,
                            0.25);
    AllocationResult R = Bls.allocate(P);
    if (ActiveCost == 5) {
      EXPECT_FALSE(R.Allocated[0]);
      EXPECT_TRUE(R.Allocated[1]);
    } else {
      EXPECT_TRUE(R.Allocated[0]);
      EXPECT_FALSE(R.Allocated[1]);
    }
  }
}

TEST(AllocatorRegistryTest, AllNamesResolve) {
  for (const std::string &Name : allAllocatorNames()) {
    auto A = makeAllocator(Name);
    ASSERT_NE(A, nullptr) << Name;
    EXPECT_EQ(Name, A->name());
  }
  EXPECT_EQ(makeAllocator("nope"), nullptr);
}

TEST(AllocatorRegistryTest, EveryAllocatorIsFeasibleOnAnSsaInstance) {
  Rng R(65);
  AllocationProblem P = ssaProblem(R, 4);
  for (const std::string &Name : allAllocatorNames()) {
    auto A = makeAllocator(Name);
    AllocationResult Result = A->allocate(P);
    EXPECT_TRUE(isFeasibleAllocation(P, Result.Allocated)) << Name;
    EXPECT_EQ(Result.AllocatedWeight + Result.SpillCost, P.graph().totalWeight())
        << Name;
  }
}

TEST(AllocatorRegistryTest, HeuristicsNeverBeatOptimal) {
  Rng R(66);
  for (int Round = 0; Round < 10; ++Round) {
    unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(8));
    AllocationProblem P = ssaProblem(R, Regs);
    OptimalBnBAllocator BnB;
    AllocationResult Optimal = BnB.allocate(P);
    ASSERT_TRUE(Optimal.Proven);
    for (const std::string &Name :
         {std::string("gc"), std::string("nl"), std::string("bl"),
          std::string("fpl"), std::string("bfpl"), std::string("lh"),
          std::string("ls"), std::string("bls")}) {
      AllocationResult Result = makeAllocator(Name)->allocate(P);
      EXPECT_GE(Result.SpillCost, Optimal.SpillCost)
          << Name << " round " << Round;
    }
  }
}
