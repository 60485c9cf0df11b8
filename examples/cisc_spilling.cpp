//===- examples/cisc_spilling.cpp - Spill code on a CISC target -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shows what a spill decision turns into on different machines (paper
/// §4.3).  The same function is allocated once with the layered-optimal
/// heuristic at a low register count; the resulting spill set is then
/// materialised as spill code twice:
///
///   - ST231 (RISC-like): every spilled use needs an explicit reload;
///   - x86-64 (CISC): complex addressing modes absorb single-use reloads
///     as memory operands (at most one per instruction), and a block-local
///     load-store pass removes reloads whose value is already available.
///
/// Build & run:  ./build/examples/cisc_spilling
///
//===----------------------------------------------------------------------===//

#include "layra/Layra.h"

#include <cstdio>

using namespace layra;

namespace {

/// A small reduction kernel with enough live values to force spilling at
/// four registers: several loop-carried accumulators plus loop-invariant
/// scale factors.
Function buildKernel() {
  Function F("cisc_demo");
  BlockId Entry = F.makeBlock("entry");
  BlockId Loop = F.makeBlock("loop");
  BlockId Exit = F.makeBlock("exit");

  auto Op = [&](BlockId Blk, ValueId Def, std::vector<ValueId> Uses) {
    Instruction I;
    I.Op = Opcode::Op;
    I.Defs = {Def};
    I.Uses = std::move(Uses);
    F.block(Blk).Instrs.push_back(std::move(I));
  };
  auto Terminate = [&](BlockId Blk, Opcode Kind, std::vector<ValueId> Uses) {
    Instruction I;
    I.Op = Kind;
    I.Uses = std::move(Uses);
    F.block(Blk).Instrs.push_back(std::move(I));
  };

  ValueId Scale = F.makeValue("scale"), Bias = F.makeValue("bias");
  ValueId Limit = F.makeValue("limit");
  ValueId Sum = F.makeValue("sum"), Prod = F.makeValue("prod");
  ValueId Idx = F.makeValue("idx"), Elem = F.makeValue("elem");
  ValueId Scaled = F.makeValue("scaled"), Ret = F.makeValue("ret");

  Op(Entry, Scale, {});
  Op(Entry, Bias, {});
  Op(Entry, Limit, {});
  Op(Entry, Sum, {});
  Op(Entry, Prod, {});
  Op(Entry, Idx, {});
  Terminate(Entry, Opcode::Branch, {Limit});
  F.addEdge(Entry, Loop);

  // Loop body: every accumulator is updated from the invariants.
  Op(Loop, Elem, {Idx, Scale});
  Op(Loop, Scaled, {Elem, Bias});
  Op(Loop, Sum, {Sum, Scaled});
  Op(Loop, Prod, {Prod, Elem});
  Op(Loop, Idx, {Idx, Limit});
  Terminate(Loop, Opcode::Branch, {Idx});
  F.addEdge(Loop, Loop);
  F.addEdge(Loop, Exit);

  Op(Exit, Ret, {Sum, Prod});
  Terminate(Exit, Opcode::Return, {Ret});
  F.addEdge(Entry, Exit);
  return F;
}

/// Counts reloads and their frequency-weighted cost under \p Target.
std::pair<unsigned, Weight> reloadCost(const Function &F,
                                       const TargetDesc &Target) {
  unsigned Loads = 0;
  Weight Cost = 0;
  for (BlockId B = 0; B < F.numBlocks(); ++B)
    for (const Instruction &I : F.block(B).Instrs) {
      if (I.Op == Opcode::Load) {
        ++Loads;
        Cost += F.block(B).Frequency * Target.LoadCost;
      }
      Cost += F.block(B).Frequency * Target.MemOperandCost *
              static_cast<Weight>(I.MemUseSlots.size());
    }
  return {Loads, Cost};
}

} // namespace

int main() {
  Function F = buildKernel();
  DominatorTree Dom(F);
  LoopInfo Loops(F, Dom);
  Loops.annotate(F);
  SsaConversion Conv = convertToSsa(F);

  constexpr unsigned Regs = 4;
  AllocationProblem P = buildSsaProblem(Conv.Ssa, X86_64, {Regs});
  AllocationResult Alloc = layeredAllocate(P, LayeredOptions::bfpl());
  std::printf("kernel with %u SSA values, MaxLive %u, allocated with R=%u\n",
              Conv.Ssa.numValues(), P.maxLive(), Regs);
  std::printf("spilled %zu values, spill-everywhere cost %lld\n\n",
              Alloc.spilled().size(), static_cast<long long>(Alloc.SpillCost));

  for (const TargetDesc *Target : {&ST231, &X86_64}) {
    Function Rewritten = Conv.Ssa;
    std::vector<char> Spilled(Conv.Ssa.numValues(), 0);
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      Spilled[V] = Alloc.Allocated[V] ? 0 : 1;
    SpillRewriteStats Stats = rewriteSpills(Rewritten, Spilled);
    ReloadCleanupStats Cleaned = eliminateRedundantReloads(Rewritten);
    OperandFoldStats Folded = foldMemoryOperands(Rewritten, *Target);

    auto [Loads, Cost] = reloadCost(Rewritten, *Target);
    std::printf("--- %s ---\n", Target->Name);
    std::printf("  reloads inserted:   %u (+%u stores)\n", Stats.NumLoads,
                Stats.NumStores);
    std::printf("  removed block-local: %u\n", Cleaned.LoadsRemoved);
    std::printf("  folded into ops:    %u (budget: %u mem operand(s))\n",
                Folded.LoadsFolded, Target->MaxMemOperands);
    std::printf("  residual reloads:   %u, weighted reload cost %lld\n\n",
                Loads, static_cast<long long>(Cost));
    if (Target == &X86_64)
      std::printf("%s", Rewritten.toString().c_str());
  }
  return 0;
}
