//===- tests/suites/SuitesTest.cpp - Benchmark suite tests ----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "suites/Suites.h"

#include "graph/Chordal.h"

#include <gtest/gtest.h>

using namespace layra;

TEST(SuitesTest, SuiteShapes) {
  EXPECT_EQ(makeSpec2000Int().Programs.size(), 12u);
  EXPECT_EQ(makeEembc().Programs.size(), 20u);
  EXPECT_EQ(makeLaoKernels().Programs.size(), 12u);
  EXPECT_EQ(makeSpecJvm98().Programs.size(), 9u);
}

TEST(SuitesTest, DeterministicAcrossCalls) {
  Suite A = makeEembc();
  Suite B = makeEembc();
  ASSERT_EQ(A.numFunctions(), B.numFunctions());
  for (size_t P = 0; P < A.Programs.size(); ++P)
    for (size_t F = 0; F < A.Programs[P].Functions.size(); ++F)
      EXPECT_EQ(A.Programs[P].Functions[F].toString(),
                B.Programs[P].Functions[F].toString());
}

TEST(SuitesTest, AllFunctionsVerify) {
  for (const char *Name :
       {"spec2000int", "eembc", "lao-kernels", "specjvm98"}) {
    Suite S = makeSuite(Name);
    for (const SuiteProgram &Prog : S.Programs)
      for (const Function &F : Prog.Functions) {
        std::string Error;
        EXPECT_TRUE(verifyFunction(F, false, &Error))
            << Name << "/" << Prog.Name << ": " << Error;
      }
  }
}

TEST(SuitesTest, ChordalProblemsAreChordalWithCliqueConstraints) {
  Suite S = makeLaoKernels();
  std::vector<NamedProblem> Problems = chordalProblems(S, ST231, {4});
  EXPECT_EQ(Problems.size(), S.numFunctions());
  for (const NamedProblem &NP : Problems) {
    EXPECT_TRUE(NP.P.Chordal);
    EXPECT_TRUE(isChordal(NP.P.graph()));
    EXPECT_GT(NP.P.maxLive(), 0u);
    EXPECT_TRUE(NP.P.Intervals.has_value());
  }
}

TEST(SuitesTest, GeneralProblemsIncludeNonChordalGraphs) {
  // The JVM98 evaluation depends on genuinely non-chordal interference
  // graphs (paper §6.2).  The method population is dominated by tiny
  // near-trivial methods (as real JIT workloads are), so non-chordality is
  // expected from the hot tail: a healthy share of the *pressured* methods
  // must provide non-chordal graphs.
  Suite S = makeSpecJvm98();
  std::vector<NamedProblem> Problems = generalProblems(S, ARMv7, {6});
  unsigned NonChordal = 0, Hot = 0, HotNonChordal = 0;
  for (const NamedProblem &NP : Problems) {
    bool Chordal = isChordal(NP.P.graph());
    NonChordal += Chordal ? 0 : 1;
    if (NP.P.maxLive() >= 8) {
      ++Hot;
      HotNonChordal += Chordal ? 0 : 1;
    }
  }
  EXPECT_GT(NonChordal, 20u) << NonChordal << " of " << Problems.size();
  ASSERT_GT(Hot, 0u);
  EXPECT_GT(HotNonChordal, Hot / 5) << HotNonChordal << " of " << Hot;
}

TEST(SuitesTest, LoopKernelsHaveHotBlocks) {
  Suite S = makeLaoKernels();
  unsigned HotFunctions = 0;
  for (const SuiteProgram &Prog : S.Programs)
    for (const Function &F : Prog.Functions) {
      Weight MaxFreq = 0;
      for (BlockId B = 0; B < F.numBlocks(); ++B)
        MaxFreq = std::max(MaxFreq, F.block(B).Frequency);
      HotFunctions += MaxFreq >= 100 ? 1 : 0; // Nested-loop frequency.
    }
  EXPECT_GT(HotFunctions, S.numFunctions() / 3);
}

TEST(SuitesTest, ProblemSizesAreRealistic) {
  Suite S = makeSpec2000Int();
  std::vector<NamedProblem> Problems = chordalProblems(S, ST231, {8});
  unsigned TotalVertices = 0, MaxVertices = 0, TotalMaxLive = 0;
  for (const NamedProblem &NP : Problems) {
    TotalVertices += NP.P.graph().numVertices();
    MaxVertices = std::max(MaxVertices, NP.P.graph().numVertices());
    TotalMaxLive += NP.P.maxLive();
  }
  // ~100 functions with O(100) SSA values each.
  EXPECT_GT(TotalVertices / Problems.size(), 50u);
  EXPECT_GT(MaxVertices, 150u);
  EXPECT_GT(TotalMaxLive / Problems.size(), 5u);
}

TEST(SuitesTest, UnknownSuiteNameAborts) {
  EXPECT_DEATH(makeSuite("not-a-suite"), "unknown suite");
}
