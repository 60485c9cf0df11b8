//===- tests/alloc/OptimalTest.cpp - Exact solver tests -------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "alloc/OptimalBnB.h"

#include "alloc/BruteForce.h"
#include "alloc/OptimalInterval.h"
#include "core/ProblemBuilder.h"
#include "graph/Generators.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"

#include <gtest/gtest.h>

using namespace layra;

TEST(OptimalTest, MatchesBruteForceOnChordalGraphs) {
  Rng R(101);
  for (int Round = 0; Round < 50; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 4 + static_cast<unsigned>(R.nextBelow(16));
    Opt.MaxWeight = 30;
    Graph G = randomChordalGraph(R, Opt);
    unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(6));
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {Regs});
    OptimalBnBAllocator BnB;
    BruteForceAllocator Brute;
    AllocationResult Fast = BnB.allocate(P);
    AllocationResult Slow = Brute.allocate(P);
    EXPECT_TRUE(Fast.Proven);
    EXPECT_EQ(Fast.SpillCost, Slow.SpillCost)
        << "round " << Round << " R=" << Regs;
  }
}

TEST(OptimalTest, MatchesBruteForceOnGeneralPointConstraints) {
  // Non-chordal instances with arbitrary point constraints.
  Rng R(202);
  for (int Round = 0; Round < 40; ++Round) {
    unsigned N = 6 + static_cast<unsigned>(R.nextBelow(12));
    Graph G = randomGraph(R, N, 0.3, 25);
    // Random constraint sets of size 2..5.
    std::vector<std::vector<VertexId>> Sets;
    unsigned NumSets = 3 + static_cast<unsigned>(R.nextBelow(8));
    for (unsigned S = 0; S < NumSets; ++S) {
      std::set<VertexId> Set;
      unsigned Size = 2 + static_cast<unsigned>(R.nextBelow(4));
      for (unsigned I = 0; I < Size; ++I)
        Set.insert(static_cast<VertexId>(R.nextBelow(N)));
      Sets.emplace_back(Set.begin(), Set.end());
    }
    unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(3));
    AllocationProblem P =
        AllocationProblem::fromGeneralGraph(std::move(G), {Regs}, {}, Sets);
    OptimalBnBAllocator BnB;
    BruteForceAllocator Brute;
    EXPECT_EQ(BnB.allocate(P).SpillCost, Brute.allocate(P).SpillCost)
        << "round " << Round;
  }
}

TEST(OptimalTest, FlowSolverAgreesOnIntervalInstances) {
  // Independent cross-check: min-cost-flow exact selection on intervals vs
  // branch-and-bound on the equivalent point-constraint problem.
  Rng R(303);
  for (int Round = 0; Round < 30; ++Round) {
    unsigned N = 5 + static_cast<unsigned>(R.nextBelow(30));
    std::vector<LiveInterval> Intervals(N);
    std::vector<Weight> Weights(N);
    for (unsigned I = 0; I < N; ++I) {
      Intervals[I].V = I;
      Intervals[I].Start = static_cast<unsigned>(R.nextBelow(40));
      Intervals[I].End =
          Intervals[I].Start + static_cast<unsigned>(R.nextBelow(12));
      Intervals[I].Cost = static_cast<Weight>(R.nextInRange(1, 25));
      Weights[I] = Intervals[I].Cost;
    }
    // Point constraints: live sets at every coordinate.
    std::vector<std::vector<VertexId>> Sets;
    for (unsigned Point = 0; Point < 55; ++Point) {
      std::vector<VertexId> Live;
      for (unsigned I = 0; I < N; ++I)
        if (Intervals[I].Start <= Point && Point <= Intervals[I].End)
          Live.push_back(I);
      if (Live.size() > 1)
        Sets.push_back(std::move(Live));
    }
    std::vector<GraphEdge> Edges;
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = A + 1; B < N; ++B)
        if (Intervals[A].overlaps(Intervals[B]))
          Edges.push_back({A, B});
    Graph G(std::move(Weights), Edges);

    unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(5));
    std::vector<char> Keep = selectIntervalsOptimal(Intervals, Regs);
    Weight FlowWeight = 0;
    for (unsigned I = 0; I < N; ++I)
      if (Keep[I])
        FlowWeight += Intervals[I].Cost;

    AllocationProblem P =
        AllocationProblem::fromGeneralGraph(std::move(G), {Regs}, {}, Sets);
    OptimalBnBAllocator BnB;
    AllocationResult Result = BnB.allocate(P);
    EXPECT_TRUE(Result.Proven);
    EXPECT_EQ(FlowWeight, Result.AllocatedWeight) << "round " << Round;
  }
}

TEST(OptimalTest, ProvenOnSuiteSizedSsaInstances) {
  // The solver must prove optimality on the actual suite instances the
  // benchmark harness sweeps (here: the two largest SPEC-like programs).
  Suite S = makeSpec2000Int();
  S.Programs.resize(2);
  for (unsigned Regs : {1u, 2u, 4u, 8u, 16u, 32u}) {
    std::vector<NamedProblem> Problems = chordalProblems(S, ST231, {Regs});
    for (NamedProblem &NP : Problems) {
      OptimalBnBAllocator BnB;
      AllocationResult Result = BnB.allocate(NP.P);
      EXPECT_TRUE(Result.Proven)
          << NP.Program << "/" << NP.Function << " R=" << Regs
          << " V=" << NP.P.graph().numVertices() << " maxlive=" << NP.P.maxLive();
      EXPECT_TRUE(isFeasibleAllocation(NP.P, Result.Allocated));
    }
  }
}

TEST(OptimalTest, NodeLimitReportsUnproven) {
  Rng R(505);
  ChordalGenOptions Opt;
  Opt.NumVertices = 60;
  Opt.SubtreeSpread = 0.5; // Dense.
  Graph G = randomChordalGraph(R, Opt);
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {8});
  OptimalBnBAllocator Tiny(/*NodeLimit=*/3);
  AllocationResult Result = Tiny.allocate(P);
  // With 3 nodes the search cannot finish (unless preprocessing solved it);
  // the incumbent must still be feasible.
  EXPECT_TRUE(isFeasibleAllocation(P, Result.Allocated));
  if (!Result.Proven) {
    EXPECT_GT(Result.AllocatedWeight, 0);
  }
}

TEST(OptimalTest, FreeVerticesAlwaysAllocated) {
  // Constraints of size <= R never bind: everything is allocated.
  Graph G({1, 2, 3, 4, 5}, {{0, 1}, {2, 3}});
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {2});
  OptimalBnBAllocator BnB;
  AllocationResult Result = BnB.allocate(P);
  EXPECT_EQ(Result.SpillCost, 0);
  EXPECT_TRUE(Result.Proven);
}

TEST(OptimalTest, CliqueWiderThanTheDpKeepsItsHeaviestVertices) {
  // A 70-clique at 2 registers: few DP states, but more members than the
  // clique-tree DP can hold, so the exact solver must take another path.
  constexpr unsigned N = 70;
  std::vector<Weight> Weights(N);
  std::vector<GraphEdge> Edges;
  for (VertexId V = 0; V < N; ++V) {
    Weights[V] = 1 + V;
    for (VertexId U = 0; U < V; ++U)
      Edges.push_back({U, V});
  }
  AllocationProblem P =
      AllocationProblem::fromChordalGraph(Graph(Weights, Edges), {2});
  OptimalBnBAllocator BnB;
  AllocationResult Result = BnB.allocate(P);
  EXPECT_TRUE(Result.Proven);
  std::vector<char> Want(N, 0);
  Want[N - 2] = Want[N - 1] = 1;
  EXPECT_EQ(Result.Allocated, Want);
  EXPECT_EQ(Result.SpillCost, Weight(N - 2) * (N - 1) / 2);
}
