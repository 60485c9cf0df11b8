//===- examples/jit_pipeline.cpp - JIT-style allocation walkthrough -------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulates the paper's §6.2 JIT scenario: non-SSA methods (as a JikesRVM-
/// style compiler would hold them), general interference graphs, and the
/// layered-heuristic allocator racing the classic JIT baselines.  Also
/// materialises the winning decision as spill code and reports the final
/// static spill profile -- everything a JIT backend would do, end to end.
///
/// Build & run:  ./build/examples/jit_pipeline
///
//===----------------------------------------------------------------------===//

#include "layra/Layra.h"

#include <chrono>
#include <cstdio>

using namespace layra;

int main() {
  // A "hot method" arriving at the JIT: generated, not hand-written, like
  // the synthetic JVM98 suite.
  Rng R(0xc0ffee);
  ProgramGenOptions Shape;
  Shape.NumVars = 16;
  Shape.MaxBlocks = 32;
  Shape.LoopProb = 0.35;
  Function Method = generateFunction(R, Shape, "hot_method");
  DominatorTree Dom(Method);
  LoopInfo Loops(Method, Dom);
  Loops.annotate(Method);

  unsigned Regs = 6;
  AllocationProblem P = buildGeneralProblem(Method, ARMv7, {Regs});
  std::printf("method %s: %u blocks, %u variables, MaxLive=%u, "
              "interference %s\n\n",
              Method.name().c_str(), Method.numBlocks(), Method.numValues(),
              P.maxLive(), isChordal(P.graph()) ? "chordal" : "NON-chordal");

  // Race the JIT allocators; a JIT also cares about allocation time.  The
  // winner is the cheapest decision (lowest static spill cost), with
  // allocation time breaking ties -- not a hardcoded favourite.
  std::printf("%-8s %-12s %-10s\n", "alloc", "spill cost", "time");
  AllocationResult Best;
  std::string BestName;
  double BestUs = 0;
  for (const char *Name : {"ls", "bls", "gc", "lh"}) {
    auto A = makeAllocator(Name);
    auto T0 = std::chrono::steady_clock::now();
    AllocationResult Result = A->allocate(P);
    double Us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    std::printf("%-8s %-12lld %.0f us\n", Name, Result.SpillCost, Us);
    if (BestName.empty() || Result.SpillCost < Best.SpillCost ||
        (Result.SpillCost == Best.SpillCost && Us < BestUs)) {
      Best = Result;
      BestName = Name;
      BestUs = Us;
    }
  }
  std::printf("\nwinner: %s (spill cost %lld)\n", BestName.c_str(),
              Best.SpillCost);

  // Materialise the winner's decision as spill code.
  std::vector<char> Spilled(Method.numValues(), 0);
  for (VertexId V = 0; V < P.graph().numVertices(); ++V)
    Spilled[V] = Best.Allocated[V] ? 0 : 1;
  SpillRewriteStats Stats = rewriteSpills(Method, Spilled);
  std::printf("\nspill code inserted: %u stores, %u loads, %u stack slots\n",
              Stats.NumStores, Stats.NumLoads, Stats.NumSlots);

  Liveness LiveAfter(Method);
  std::printf("pressure: MaxLive %u -> %u after spilling (R = %u)\n",
              P.maxLive(), LiveAfter.maxLive(Method), Regs);

  std::printf("\n--- rewritten method (excerpt) ---\n");
  std::string Text = Method.toString();
  std::printf("%.1200s%s\n", Text.c_str(),
              Text.size() > 1200 ? "\n  ..." : "");
  return 0;
}
