//===- examples/kernel_tuner.cpp - Register sweep on a DSP kernel ---------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An embedded-compiler scenario in the spirit of the paper's lao-kernels
/// evaluation: take one loop kernel, sweep the register count, and chart
/// where each allocator starts spilling and how far from optimal it lands.
/// Also dumps the interference graph in Graphviz DOT with the optimal
/// allocation highlighted, for inspection.
///
/// Build & run:  ./build/examples/kernel_tuner [dot-output-path]
///
//===----------------------------------------------------------------------===//

#include "layra/Layra.h"

#include <cstdio>

using namespace layra;

int main(int ArgC, char **ArgV) {
  // Pull one kernel out of the lao-kernels suite.
  Suite S = makeLaoKernels();
  const Function &Kernel = S.Programs.front().Functions.front();
  SsaConversion Ssa = convertToSsa(Kernel);
  std::printf("kernel %s/%s: %u blocks, %u SSA values\n\n",
              S.Programs.front().Name.c_str(), Kernel.name().c_str(),
              Kernel.numBlocks(), Ssa.Ssa.numValues());

  std::printf("%-5s %-9s %-38s %-9s\n", "R", "MaxLive",
              "spill cost: nl / bl / fpl / bfpl / gc", "optimal");
  for (unsigned Regs = 1; Regs <= 10; ++Regs) {
    AllocationProblem P = buildSsaProblem(Ssa.Ssa, ST231, {Regs});
    Weight Nl = layeredAllocate(P, LayeredOptions::nl()).SpillCost;
    Weight Bl = layeredAllocate(P, LayeredOptions::bl()).SpillCost;
    Weight Fpl = layeredAllocate(P, LayeredOptions::fpl()).SpillCost;
    Weight Bfpl = layeredAllocate(P, LayeredOptions::bfpl()).SpillCost;
    Weight Gc = makeAllocator("gc")->allocate(P).SpillCost;
    AllocationResult Optimal = makeAllocator("optimal")->allocate(P);
    std::printf("%-5u %-9u %6lld /%6lld /%6lld /%6lld /%6lld   %-6lld%s\n",
                Regs, P.maxLive(), Nl, Bl, Fpl, Bfpl, Gc, Optimal.SpillCost,
                Optimal.Proven ? "" : " (bound)");
  }

  // Dump the graph with the optimal allocation at the sweet spot R = 4.
  AllocationProblem P = buildSsaProblem(Ssa.Ssa, ST231, {4});
  AllocationResult Optimal = makeAllocator("optimal")->allocate(P);
  std::string Dot = P.graph().toDot(Optimal.allocated());
  const char *Path = ArgC > 1 ? ArgV[1] : "kernel_interference.dot";
  if (std::FILE *Out = std::fopen(Path, "w")) {
    std::fputs(Dot.c_str(), Out);
    std::fclose(Out);
    std::printf("\ninterference graph written to %s "
                "(allocated vertices highlighted)\n",
                Path);
  }
  return 0;
}
