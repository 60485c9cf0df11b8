//===- tests/core/LayeredReferenceTest.cpp - Layered kernel vs reference --===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental layered kernel (core/Layered.cpp: kept candidate
/// degrees, PEO-ordered candidates compacted per layer, later-neighbor
/// charging, stamped blue marks) must return exactly the Allocated flags
/// of the per-layer reference (fuzz/LayeredReference.h) for NL, BL, FPL
/// and BFPL at every supported step: on random chordal graphs at several
/// register counts, ties included, and on every round-0 problem of the
/// paper's st231 sweep.
///
//===----------------------------------------------------------------------===//

#include "fuzz/LayeredReference.h"

#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "core/StepLayer.h"
#include "graph/Generators.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"

#include <gtest/gtest.h>

#include <string>

using namespace layra;

namespace {

/// Runs every variant at steps 1..\p MaxStep on \p P, one shared workspace
/// across all runs as the pipeline has it, and requires the reference's
/// flags.
void expectMatchesReference(const AllocationProblem &P, SolverWorkspace &WS,
                            const std::string &What,
                            unsigned MaxStep = kMaxLayerStep) {
  for (LayeredOptions Options :
       {LayeredOptions::nl(), LayeredOptions::bl(), LayeredOptions::fpl(),
        LayeredOptions::bfpl()})
    for (unsigned Step = 1; Step <= MaxStep; ++Step) {
      Options.Step = Step;
      EXPECT_EQ(layeredAllocate(P, Options, &WS).Allocated,
                referenceLayeredAllocate(P, Options).Allocated)
          << What << " R=" << P.uniformBudget()
          << " biased=" << Options.Biased
          << " fixed-point=" << Options.FixedPoint << " step=" << Step;
    }
}

} // namespace

TEST(LayeredReferenceTest, RandomChordalGraphsMatchTheReference) {
  Rng R(0x6c61796572656446ULL);
  SolverWorkspace WS;
  for (unsigned Round = 0; Round < 40; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 4 + static_cast<unsigned>(R.nextBelow(60));
    Opt.TreeSize = 4 + static_cast<unsigned>(R.nextBelow(40));
    Opt.SubtreeSpread = 0.05 + 0.4 * R.nextDouble();
    // Few distinct weights make ties common, which is where the bias and
    // Frank's tie-breaking decide the layer.
    Opt.MaxWeight = Round % 2 ? 3 : 100;
    AllocationProblem P = AllocationProblem::fromChordalGraph(
        randomChordalGraph(R, Opt), {1}, {}, &WS);
    for (unsigned Regs : {0u, 1u, 2u, 3u, 5u, 8u})
      expectMatchesReference(P.withBudgets({Regs}), WS,
                             "round " + std::to_string(Round));
  }
}

TEST(LayeredReferenceTest, EveryRound0ProblemOfTheSt231SweepMatches) {
  // The paper's evaluation shape: eembc + spec2000int at 4..16 registers,
  // every problem at step 1.  Steps 2 and 3 run the clique-tree DP, whose
  // tables grow as |clique|^step: over the whole sweep that takes minutes,
  // so they cover the functions whose DP stays within a thousand states
  // (the random graphs above cover them at every R).
  constexpr double kStepDpStates = 1000;
  SolverWorkspace WS;
  unsigned Problems = 0, StepDpFunctions = 0;
  for (const char *Name : {"eembc", "spec2000int"}) {
    Suite S = makeSuite(Name);
    for (const SuiteProgram &Prog : S.Programs)
      for (const Function &F : Prog.Functions) {
        AllocationProblem P =
            buildSsaProblem(convertToSsa(F).Ssa, ST231, std::vector<unsigned>{4},
                            &WS, /*WithIntervals=*/false);
        std::vector<char> All(P.graph().numVertices(), 1);
        unsigned MaxStep = 1;
        while (MaxStep < kMaxLayerStep &&
               estimateBoundedLayerStates(P, All, MaxStep + 1) <= kStepDpStates)
          ++MaxStep;
        StepDpFunctions += MaxStep > 1 ? 1 : 0;
        for (unsigned Regs = 4; Regs <= 16; ++Regs, ++Problems)
          expectMatchesReference(P.withBudgets({Regs}), WS, F.name(), MaxStep);
      }
  }
  EXPECT_EQ(Problems, 2028u);
  EXPECT_GT(StepDpFunctions, 20u);
}
