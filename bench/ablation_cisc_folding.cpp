//===- bench/ablation_cisc_folding.cpp - §4.3 CISC memory operands --------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §4.3 notes that CISC targets "can take advantage of complex addressing
/// modes to get operands directly from memory (at most one such operand on
/// x86)".  This ablation materialises BFPL's spill-everywhere decision as
/// spill code and folds reloads on an x86-64-like target, reporting how
/// many reloads an addressing mode absorbs and how much of the static
/// reload cost that recovers -- i.e. how much cheaper the same allocation
/// gets on a CISC machine without changing the allocator at all.
///
//===----------------------------------------------------------------------===//

#include "core/Layered.h"
#include "core/ProblemBuilder.h"
#include "ir/OperandFolding.h"
#include "ir/SpillRewriter.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"
#include "support/Table.h"

#include <cstdio>

using namespace layra;

int main() {
  std::printf("== Ablation: CISC memory-operand folding of spill reloads "
              "(BFPL spill code, x86-64 cost model) ==\n");
  Table T({"suite", "regs", "loads", "folded", "folded %", "reload cost",
           "saved %"});

  for (const char *SuiteName : {"spec2000int", "eembc", "lao-kernels"}) {
    Suite S = makeSuite(SuiteName);
    for (unsigned Regs : {4u, 8u}) {
      unsigned Loads = 0, Folded = 0;
      Weight ReloadCost = 0, Saved = 0;
      for (const SuiteProgram &Prog : S.Programs)
        for (const Function &F : Prog.Functions) {
          SsaConversion Conv = convertToSsa(F);
          AllocationProblem P = buildSsaProblem(Conv.Ssa, X86_64, {Regs});
          AllocationResult Alloc = layeredAllocate(P, LayeredOptions::bfpl());
          std::vector<char> Spilled(Conv.Ssa.numValues(), 0);
          for (VertexId V = 0; V < P.graph().numVertices(); ++V)
            Spilled[V] = Alloc.Allocated[V] ? 0 : 1;
          Function Rewritten = Conv.Ssa;
          SpillRewriteStats SpillStats = rewriteSpills(Rewritten, Spilled);
          Loads += SpillStats.NumLoads;
          for (BlockId B = 0; B < Rewritten.numBlocks(); ++B)
            for (const Instruction &I : Rewritten.block(B).Instrs)
              if (I.Op == Opcode::Load)
                ReloadCost +=
                    Rewritten.block(B).Frequency * X86_64.LoadCost;
          OperandFoldStats Fold = foldMemoryOperands(Rewritten, X86_64);
          Folded += Fold.LoadsFolded;
          Saved += Fold.CostSaved;
        }
      T.addRow({SuiteName, std::to_string(Regs), std::to_string(Loads),
                std::to_string(Folded),
                Table::percent(Folded, Loads),
                std::to_string(ReloadCost),
                Table::percent(Saved, ReloadCost)});
    }
  }
  T.print(stdout);
  std::printf("\nReading: 'folded %%' is the share of reloads an x86-style "
              "addressing mode absorbs; 'saved %%' the share of weighted "
              "reload cost recovered (folded operands still cost "
              "MemOperandCost each).\n");
  return 0;
}
