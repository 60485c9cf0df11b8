//===- bench/ablation_loadstore.cpp - §2.1 spill-everywhere vs load-store -===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §2.1 argues spill everywhere is a practical proxy for the NP-complete
/// load-store optimization because "most SSA variables have only one or two
/// uses in practice".  This ablation materialises BFPL's spill-everywhere
/// decision as spill code and then runs the block-local load-store
/// optimizer, reporting how many reloads it can actually remove -- small
/// percentages support the paper's argument.
///
//===----------------------------------------------------------------------===//

#include "core/Layered.h"
#include "core/ProblemBuilder.h"
#include "ir/ReloadCleanup.h"
#include "ir/SpillRewriter.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"
#include "support/Table.h"

#include <cstdio>

using namespace layra;

int main() {
  std::printf("== Ablation: spill-everywhere vs load-store optimization "
              "(BFPL spill code) ==\n");
  Table T({"suite", "regs", "loads", "removed", "removed %", "cost saved %"});

  for (const char *SuiteName : {"spec2000int", "eembc", "lao-kernels"}) {
    Suite S = makeSuite(SuiteName);
    for (unsigned Regs : {4u, 8u}) {
      unsigned Loads = 0, Removed = 0;
      Weight LoadCost = 0, Saved = 0;
      for (const SuiteProgram &Prog : S.Programs)
        for (const Function &F : Prog.Functions) {
          SsaConversion Conv = convertToSsa(F);
          AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {Regs});
          AllocationResult Alloc =
              layeredAllocate(P, LayeredOptions::bfpl());
          std::vector<char> Spilled(Conv.Ssa.numValues(), 0);
          for (VertexId V = 0; V < P.graph().numVertices(); ++V)
            Spilled[V] = Alloc.Allocated[V] ? 0 : 1;
          Function Rewritten = Conv.Ssa;
          SpillRewriteStats SpillStats = rewriteSpills(Rewritten, Spilled);
          Loads += SpillStats.NumLoads;
          // Weighted reload cost before cleanup.
          for (BlockId B = 0; B < Rewritten.numBlocks(); ++B)
            for (const Instruction &I : Rewritten.block(B).Instrs)
              if (I.Op == Opcode::Load)
                LoadCost += Rewritten.block(B).Frequency;
          ReloadCleanupStats Clean = eliminateRedundantReloads(Rewritten);
          Removed += Clean.LoadsRemoved;
          Saved += Clean.CostSaved;
        }
      T.addRow({SuiteName, std::to_string(Regs),
                Table::num((long long)Loads), Table::num((long long)Removed),
                Loads ? Table::num(100.0 * Removed / Loads, 1) + "%" : "-",
                LoadCost ? Table::num(100.0 * static_cast<double>(Saved) /
                                          static_cast<double>(LoadCost),
                                      1) +
                               "%"
                         : "-"});
    }
  }
  T.print(stdout);
  return 0;
}
