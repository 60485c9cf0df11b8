//===- bench/ablation_step_sizes.cpp - §4 step parameter ablation ---------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper fixes step = 1 ("we restrict ourselves to a step of one") and
/// notes step >= 2 is solvable by dynamic programming.  This ablation runs
/// the layered allocator with step 1, 2 and 3 layers across the chordal
/// suites and reports quality (cost vs optimal) and wall-clock, quantifying
/// what the extra optimality per layer buys.
///
//===----------------------------------------------------------------------===//

#include "alloc/OptimalBnB.h"
#include "core/Layered.h"
#include "suites/Suites.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>

using namespace layra;

int main() {
  struct Row {
    unsigned Step;
    Weight Cost = 0;
    double Millis = 0;
    unsigned Wins = 0; // Instances strictly better than step 1.
  };
  Row Rows[] = {{1, 0, 0, 0}, {2, 0, 0, 0}, {3, 0, 0, 0}};
  Weight OptimalCost = 0;
  unsigned Instances = 0;

  for (const char *SuiteName : {"eembc", "lao-kernels"}) {
    Suite S = makeSuite(SuiteName);
    for (unsigned Regs : {2u, 3u, 4u, 6u, 8u}) {
      std::vector<NamedProblem> Problems = chordalProblems(S, ST231, {Regs});
      for (NamedProblem &NP : Problems) {
        ++Instances;
        OptimalBnBAllocator BnB(10'000'000);
        OptimalCost += BnB.allocate(NP.P).SpillCost;
        Weight Step1Cost = 0;
        for (Row &R : Rows) {
          LayeredOptions Opt = LayeredOptions::bfpl();
          Opt.Step = R.Step;
          auto T0 = std::chrono::steady_clock::now();
          Weight Cost = layeredAllocate(NP.P, Opt).SpillCost;
          R.Millis += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
          R.Cost += Cost;
          if (R.Step == 1)
            Step1Cost = Cost;
          else
            R.Wins += Cost < Step1Cost ? 1 : 0;
        }
      }
    }
  }

  std::printf("== Ablation: layer step size (BFPL, eembc + lao-kernels, "
              "R in {2,3,4,6,8}) ==\n");
  Table T({"step", "total cost", "vs optimal", "wins vs step1",
           "total time (ms)"});
  for (Row &R : Rows)
    T.addRow({std::to_string(R.Step), Table::num((long long)R.Cost),
              Table::num(static_cast<double>(R.Cost) /
                         static_cast<double>(OptimalCost)),
              Table::num((long long)R.Wins), Table::num(R.Millis, 1)});
  T.addRow({"optimal", Table::num((long long)OptimalCost), "1.000", "-",
            "-"});
  T.print(stdout);
  std::printf("instances: %u\n", Instances);
  return 0;
}
