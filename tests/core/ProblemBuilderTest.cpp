//===- tests/core/ProblemBuilderTest.cpp - Problem builder tests ----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/ProblemBuilder.h"

#include "alloc/Allocator.h"
#include "core/AllocationProblem.h"
#include "driver/BatchDriver.h"
#include "graph/Chordal.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace layra;

TEST(ProblemBuilderTest, SsaProblemIsChordalWithCliqueConstraints) {
  Rng R(71);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {4});
  EXPECT_TRUE(P.Chordal);
  EXPECT_EQ(P.Cliques, maximalCliquesChordal(P.graph(), P.Peo));
  EXPECT_TRUE(isPerfectEliminationOrder(P.graph(), P.Peo));
  EXPECT_TRUE(P.Intervals.has_value());
  EXPECT_EQ(P.uniformBudget(), 4u);
}

TEST(ProblemBuilderTest, GeneralProblemCoversEveryVertex) {
  Rng R(72);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  AllocationProblem P = buildGeneralProblem(F, ARMv7, {6});
  EXPECT_FALSE(P.Chordal);
  for (VertexId V = 0; V < P.graph().numVertices(); ++V)
    EXPECT_FALSE(P.Cliques.cliquesOf(V).empty())
        << "vertex " << V << " in no constraint";
}

TEST(ProblemBuilderTest, WithRegistersPreservesStructure) {
  Rng R(73);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {4});
  AllocationProblem Q = P.withBudgets({9});
  EXPECT_EQ(Q.uniformBudget(), 9u);
  EXPECT_EQ(Q.graph().numVertices(), P.graph().numVertices());
  EXPECT_EQ(Q.Cliques, P.Cliques);
  // The sweep path shares one immutable graph instead of copying it.
  EXPECT_EQ(Q.G.get(), P.G.get());
  for (unsigned K = 0; K < Q.Cliques.numCliques(); ++K)
    EXPECT_EQ(Q.constraintBudget(K), 9u);
}

TEST(ProblemBuilderTest, WithBudgetsAnswersLikeAFreshBuild) {
  // Re-budgeting swaps Budgets only; every budget-dependent answer must
  // equal a build made at the new budgets from scratch.
  Rng R(76);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  Function Ssa = convertToSsa(F).Ssa;
  Suite Mixed = makeSuite("mixed-classes");
  const Function &M = Mixed.Programs[0].Functions[0];
  ASSERT_GT(M.maxValueClass(), 0u);
  Function MSsa = convertToSsa(M).Ssa;

  struct Case {
    AllocationProblem Base;
    std::function<AllocationProblem(const std::vector<unsigned> &)> Fresh;
    std::vector<std::vector<unsigned>> Sweep;
    const char *Allocator;
  };
  std::vector<Case> Cases;
  Cases.push_back({buildSsaProblem(Ssa, ST231, {4}),
                   [&](const std::vector<unsigned> &B) {
                     return buildSsaProblem(Ssa, ST231, B);
                   },
                   {{2}, {3}, {5}, {8}, {12}, {32}},
                   "bfpl"});
  Cases.push_back({buildGeneralProblem(F, ARMv7, {4}),
                   [&](const std::vector<unsigned> &B) {
                     return buildGeneralProblem(F, ARMv7, B);
                   },
                   {{2}, {6}, {32}},
                   "lh"});
  Cases.push_back({buildSsaProblem(MSsa, ARMv7_VFP, {4, 8}),
                   [&](const std::vector<unsigned> &B) {
                     return buildSsaProblem(MSsa, ARMv7_VFP, B);
                   },
                   {{2, 2}, {6, 3}, {3, 16}, {32, 32}},
                   "bfpl"});
  for (const Case &C : Cases)
    for (const std::vector<unsigned> &Budgets : C.Sweep) {
      AllocationProblem Rebudgeted = C.Base.withBudgets(Budgets);
      AllocationProblem Fresh = C.Fresh(Budgets);
      EXPECT_EQ(Rebudgeted.fitsBudgets(), Fresh.fitsBudgets());
      EXPECT_EQ(Rebudgeted.maxLive(), Fresh.maxLive());
      // Keep everything, and allocations made at the new and at the old
      // budgets.
      std::vector<std::vector<char>> Probes{
          std::vector<char>(Fresh.graph().numVertices(), 1),
          makeAllocator(C.Allocator)->allocateProblem(Fresh).Allocated,
          makeAllocator(C.Allocator)->allocateProblem(C.Base).Allocated};
      for (const std::vector<char> &Allocated : Probes)
        EXPECT_EQ(isFeasibleAllocation(Rebudgeted, Allocated),
                  isFeasibleAllocation(Fresh, Allocated));
    }
}

TEST(ProblemBuilderTest, HashProblemIsPinned) {
  // hashProblem is the instance fingerprint: it keys no cache (the
  // driver's caches and the on-disk store key on hashPipelineTask), but a
  // change to how a problem is stored must not move these values, and an
  // incremental problem update is to be checked against it.
  Suite Eembc = makeSuite("eembc");
  const Function &Chordal = Eembc.Programs[0].Functions[0];
  ASSERT_EQ(Chordal.name(), "a2time_f0");
  EXPECT_EQ(hashProblem(buildSsaProblem(convertToSsa(Chordal).Ssa, ST231, {6})),
            0xa7e9493cb103f7e9ULL);

  Suite Mixed = makeSuite("mixed-classes");
  const Function &M = Mixed.Programs[0].Functions[0];
  ASSERT_EQ(M.name(), "mix_fir_f0");
  EXPECT_EQ(hashProblem(buildSsaProblem(
                convertToSsa(M).Ssa, ARMv7_VFP,
                resolveClassBudgets(ARMv7_VFP, 6, {{"vfp", 8}}))),
            0x5a1f2dccb9b57f6aULL);

  // A general instance with an empty point set (the entry block) and a
  // value live nowhere, which gets a singleton constraint.
  Rng R(75);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  ValueId Unused = F.makeValue("unused");
  AllocationProblem General = buildGeneralProblem(F, ARMv7, {6});
  bool HasEmpty = false;
  for (unsigned K = 0; K < General.Cliques.numCliques(); ++K)
    HasEmpty |= General.Cliques.clique(K).empty();
  EXPECT_TRUE(HasEmpty);
  ASSERT_EQ(General.Cliques.cliquesOf(Unused).size(), 1u);
  EXPECT_EQ(General.Cliques.clique(General.Cliques.cliquesOf(Unused)[0]).size(),
            1u);
  EXPECT_EQ(hashProblem(General), 0xfef49292e60956e7ULL);

  std::vector<VertexId> ToGlobal;
  AllocationProblem Projected =
      buildGeneralProblem(M, ARMv7_VFP, std::vector<unsigned>{4, 3})
          .projectClass(1, ToGlobal);
  EXPECT_EQ(hashProblem(Projected), 0xda001c678aa9109eULL);
}

TEST(ProblemBuilderTest, MaxLiveMatchesLargestConstraint) {
  Rng R(74);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {4});
  size_t Largest = 0;
  for (unsigned K = 0; K < P.Cliques.numCliques(); ++K)
    Largest = std::max(Largest, P.Cliques.clique(K).size());
  EXPECT_EQ(P.maxLive(), Largest);
}

TEST(ProblemBuilderTest, SingletonConstraintAddedForIsolatedVertices) {
  Graph G({0, 0, 5}, {{0, 1}}); // Vertex 2 is isolated.
  AllocationProblem P =
      AllocationProblem::fromGeneralGraph(std::move(G), {2}, {}, {{0, 1}});
  bool Found = false;
  for (unsigned K = 0; K < P.Cliques.numCliques(); ++K)
    Found |= P.Cliques.clique(K).size() == 1 && P.Cliques.clique(K)[0] == 2;
  EXPECT_TRUE(Found);
}
