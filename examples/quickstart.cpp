//===- examples/quickstart.cpp - Layra in five minutes --------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shortest end-to-end tour of Layra: build a small function by hand,
/// convert it to SSA, derive the (chordal) interference graph, run the
/// paper's layered-optimal allocator against graph coloring and the exact
/// optimum, and assign concrete registers to the winner.
///
/// Build & run:  ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "layra/Layra.h"

#include <cstdio>

using namespace layra;

/// Builds a toy function: a loop summing over two accumulators, with some
/// one-off setup values that compete for registers.
static Function buildExample() {
  Function F("quickstart");
  BlockId Entry = F.makeBlock("entry");
  BlockId Loop = F.makeBlock("loop");
  BlockId Exit = F.makeBlock("exit");

  ValueId N = F.makeValue("n"), A = F.makeValue("acc"),
          B = F.makeValue("bias"), T = F.makeValue("t"),
          U = F.makeValue("u"), Ret = F.makeValue("ret");

  auto Op = [&](BlockId Blk, ValueId Def, std::vector<ValueId> Uses) {
    Instruction I;
    I.Op = Opcode::Op;
    I.Defs = {Def};
    I.Uses = std::move(Uses);
    F.block(Blk).Instrs.push_back(std::move(I));
  };
  auto Br = [&](BlockId Blk, ValueId Cond) {
    Instruction I;
    I.Op = Opcode::Branch;
    I.Uses = {Cond};
    F.block(Blk).Instrs.push_back(std::move(I));
  };

  Op(Entry, N, {});
  Op(Entry, A, {});
  Op(Entry, B, {});
  Br(Entry, N);
  F.addEdge(Entry, Loop);

  Op(Loop, T, {A, N});
  Op(Loop, U, {T, B});
  Op(Loop, A, {U});
  Br(Loop, A);
  F.addEdge(Loop, Loop);
  F.addEdge(Loop, Exit);

  Op(Exit, Ret, {A, B});
  Instruction RetI;
  RetI.Op = Opcode::Return;
  RetI.Uses = {Ret};
  F.block(Exit).Instrs.push_back(std::move(RetI));

  return F;
}

int main() {
  // 1. Build the program and annotate loop frequencies (cost model input).
  Function F = buildExample();
  DominatorTree Dom(F);
  LoopInfo Loops(F, Dom);
  Loops.annotate(F);
  std::printf("--- input program ---\n%s\n", F.toString().c_str());

  // 2. SSA: live ranges become subtrees of the dominance tree, so the
  //    interference graph below is chordal (paper §3.2).
  SsaConversion Ssa = convertToSsa(F);
  std::printf("--- SSA form (%u phis) ---\n%s\n", Ssa.NumPhis,
              Ssa.Ssa.toString().c_str());

  // 3. The spill-everywhere instance for 2 registers on the ST231 model.
  AllocationProblem P = buildSsaProblem(Ssa.Ssa, ST231, {2});
  std::printf("interference graph: %u values, %zu edges, MaxLive=%u\n\n",
              P.graph().numVertices(), P.graph().numEdges(), P.maxLive());

  // 4. Compare allocators.
  for (const char *Name : {"bfpl", "gc", "optimal"}) {
    AllocationResult Result = makeAllocator(Name)->allocate(P);
    std::printf("%-8s spill cost %-6lld spilled:", Name, Result.SpillCost);
    for (VertexId V : Result.spilled())
      std::printf(" %s", Ssa.Ssa.valueName(V).c_str());
    std::printf("\n");
  }

  // 5. Assign concrete registers to the layered allocation (tree scan).
  AllocationResult Best = layeredAllocate(P, LayeredOptions::bfpl());
  Assignment Regs = assignRegisters(P, Best.Allocated);
  std::printf("\nassignment (%u registers used, success=%d):\n",
              Regs.RegistersUsed, Regs.Success);
  for (VertexId V = 0; V < P.graph().numVertices(); ++V)
    if (Regs.RegisterOf[V] != Assignment::kNoRegister)
      std::printf("  %-8s -> r%u\n", Ssa.Ssa.valueName(V).c_str(),
                  Regs.RegisterOf[V]);
  return 0;
}
