//===- bench/ablation_layered_variants.cpp - §4.1/§4.2 ablation -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the two improvements of §4 (biasing, fixed point): for every
/// chordal suite instance and register count, how often does each variant
/// strictly improve over plain NL, and how much of the NL-to-Optimal gap
/// does each close?  This quantifies the design choices the paper motivates
/// with Figures 6 and 7.
///
//===----------------------------------------------------------------------===//

#include "alloc/OptimalBnB.h"
#include "core/Layered.h"
#include "suites/Suites.h"
#include "support/Table.h"

#include <cstdio>

using namespace layra;

int main() {
  struct VariantRow {
    const char *Name;
    LayeredOptions Options;
    unsigned Wins = 0, Losses = 0;
    Weight TotalCost = 0;
  };
  VariantRow Variants[] = {
      {"nl", LayeredOptions::nl(), 0, 0, 0},
      {"bl", LayeredOptions::bl(), 0, 0, 0},
      {"fpl", LayeredOptions::fpl(), 0, 0, 0},
      {"bfpl", LayeredOptions::bfpl(), 0, 0, 0},
  };

  Weight OptimalCost = 0;
  unsigned Instances = 0;
  for (const char *SuiteName : {"spec2000int", "eembc", "lao-kernels"}) {
    Suite S = makeSuite(SuiteName);
    for (unsigned Regs : {2u, 4u, 8u, 16u}) {
      std::vector<NamedProblem> Problems = chordalProblems(S, ST231, {Regs});
      for (NamedProblem &NP : Problems) {
        ++Instances;
        Weight NlCost =
            layeredAllocate(NP.P, LayeredOptions::nl()).SpillCost;
        OptimalBnBAllocator BnB(10'000'000);
        OptimalCost += BnB.allocate(NP.P).SpillCost;
        for (VariantRow &V : Variants) {
          Weight Cost = layeredAllocate(NP.P, V.Options).SpillCost;
          V.TotalCost += Cost;
          V.Wins += Cost < NlCost ? 1 : 0;
          V.Losses += Cost > NlCost ? 1 : 0;
        }
      }
    }
  }

  std::printf("== Ablation: layered variants vs plain NL (chordal suites, "
              "R in {2,4,8,16}) ==\n");
  Table T({"variant", "total cost", "vs optimal", "wins vs nl",
           "losses vs nl"});
  for (VariantRow &V : Variants)
    T.addRow({V.Name, Table::num((long long)V.TotalCost),
              Table::num(static_cast<double>(V.TotalCost) /
                         static_cast<double>(OptimalCost)),
              Table::num((long long)V.Wins),
              Table::num((long long)V.Losses)});
  T.addRow({"optimal", Table::num((long long)OptimalCost), "1.000", "-",
            "-"});
  T.print(stdout);
  std::printf("instances: %u\n", Instances);
  return 0;
}
