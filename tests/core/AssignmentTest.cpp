//===- tests/core/AssignmentTest.cpp - Register assignment tests ----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/Assignment.h"

#include "core/Coalescing.h"
#include "core/Layered.h"
#include "graph/Coloring.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

using namespace layra;

TEST(AssignmentTest, FeasibleChordalAllocationAlwaysColorsWithinR) {
  // The decoupling theorem in action: whatever BFPL allocates can be
  // assigned with R registers by the tree scan, with zero extra spill.
  Rng R(21);
  for (int Round = 0; Round < 25; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 10 + static_cast<unsigned>(R.nextBelow(50));
    Graph G = randomChordalGraph(R, Opt);
    unsigned Regs = 1 + static_cast<unsigned>(R.nextBelow(8));
    AllocationProblem P = AllocationProblem::fromChordalGraph(G, {Regs});
    AllocationResult Alloc = layeredAllocate(P, LayeredOptions::bfpl());
    Assignment Regs2 = assignRegisters(P, Alloc.Allocated);
    EXPECT_TRUE(Regs2.Success) << "round " << Round;
    EXPECT_LE(Regs2.RegistersUsed, Regs);
    EXPECT_TRUE(isProperColoring(P.graph(), Regs2.RegisterOf));
  }
}

TEST(AssignmentTest, ChordalColoringUsesMaxCliqueColors) {
  // With every vertex kept, the reverse-PEO scan is an optimal coloring of
  // a chordal graph: exactly clique-number registers.  The budget only
  // decides Success, so a placeholder of 1 serves every graph.
  Rng R(20);
  for (int Round = 0; Round < 20; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 10 + static_cast<unsigned>(R.nextBelow(40));
    AllocationProblem P =
        AllocationProblem::fromChordalGraph(randomChordalGraph(R, Opt), {1});
    std::vector<char> All(P.graph().numVertices(), 1);
    Assignment A = assignRegisters(P, All);
    EXPECT_TRUE(isProperColoring(P.graph(), A.RegisterOf)) << Round;
    EXPECT_EQ(A.RegistersUsed, P.maxLive()) << Round;
    EXPECT_EQ(A.RegisterOf, assignRegistersBiased(P, All, {}).RegisterOf)
        << Round;
  }
}

TEST(AssignmentTest, SpilledVerticesGetNoRegister) {
  Rng R(22);
  ChordalGenOptions Opt;
  Opt.NumVertices = 20;
  Graph G = randomChordalGraph(R, Opt);
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {2});
  AllocationResult Alloc = layeredAllocate(P, LayeredOptions::bfpl());
  Assignment A = assignRegisters(P, Alloc.Allocated);
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    if (Alloc.Allocated[V]) {
      EXPECT_NE(A.RegisterOf[V], Assignment::kNoRegister);
    } else {
      EXPECT_EQ(A.RegisterOf[V], Assignment::kNoRegister);
    }
  }
}

TEST(AssignmentTest, EmptyAllocationUsesNoRegisters) {
  Graph G({0, 0, 0, 0}, {{0, 1}});
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {2});
  Assignment A = assignRegisters(P, std::vector<char>(4, 0));
  EXPECT_EQ(A.RegistersUsed, 0u);
  EXPECT_TRUE(A.Success);
}

TEST(AssignmentTest, GeneralGraphsMayNeedMoreThanRAndReportIt) {
  // C5 is 3-chromatic; keeping all of it with R = 2 must report failure.
  std::vector<GraphEdge> Cycle;
  for (VertexId I = 0; I < 5; ++I)
    Cycle.push_back({I, (I + 1) % 5});
  Graph C5(std::vector<Weight>(5, 1), Cycle);
  std::vector<std::vector<VertexId>> Sets;
  for (VertexId V = 0; V < 5; ++V)
    Sets.push_back({V, (V + 1) % 5});
  AllocationProblem P = AllocationProblem::fromGeneralGraph(
      std::move(C5), {2}, {}, std::move(Sets));
  Assignment A = assignRegisters(P, std::vector<char>(5, 1));
  EXPECT_FALSE(A.Success);
  EXPECT_GT(A.RegistersUsed, 2u);
  EXPECT_TRUE(isProperColoring(P.graph(), A.RegisterOf));
}

TEST(AssignmentTest, GeneralInstancesColorMaxDegreeFirst) {
  // Path 0-1-2: the middle vertex has the highest degree, so it is colored
  // first and takes register 0; id order would give {0, 1, 0}.
  Graph Path({1, 1, 1}, {{0, 1}, {1, 2}});
  AllocationProblem P = AllocationProblem::fromGeneralGraph(
      std::move(Path), {2}, {}, {{0, 1}, {1, 2}});
  Assignment A = assignRegisters(P, std::vector<char>(3, 1));
  EXPECT_EQ(A.RegisterOf, (std::vector<unsigned>{1, 0, 1}));
  EXPECT_TRUE(A.Success);
}
