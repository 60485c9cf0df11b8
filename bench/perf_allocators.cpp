//===- bench/perf_allocators.cpp - Allocator runtime scaling --------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "polynomial" in the paper's title, measured: wall-clock scaling of
/// the layered allocators (claimed O(R(|V|+|E|))), the baselines, and the
/// exact solver over graph size and register count.
///
//===----------------------------------------------------------------------===//

#include "alloc/Allocator.h"
#include "alloc/OptimalBnB.h"
#include "core/Layered.h"
#include "core/LayeredHeuristic.h"
#include "core/SolverWorkspace.h"
#include "graph/Generators.h"

#include <benchmark/benchmark.h>

using namespace layra;

namespace {
/// Deterministic problem cache so setup cost stays out of the timing.
AllocationProblem makeProblem(unsigned NumVertices, unsigned Regs) {
  Rng R(0xb0b5eed + NumVertices);
  ChordalGenOptions Opt;
  Opt.NumVertices = NumVertices;
  Opt.TreeSize = NumVertices;
  Opt.SubtreeSpread = 0.15;
  Graph G = randomChordalGraph(R, Opt);
  return AllocationProblem::fromChordalGraph(std::move(G), {Regs});
}
} // namespace

static void BM_LayeredBfpl(benchmark::State &State) {
  AllocationProblem P = makeProblem(
      static_cast<unsigned>(State.range(0)),
      static_cast<unsigned>(State.range(1)));
  for (auto _ : State) {
    AllocationResult R = layeredAllocate(P, LayeredOptions::bfpl());
    benchmark::DoNotOptimize(R.SpillCost);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_LayeredBfpl)
    ->ArgsProduct({{64, 128, 256, 512, 1024}, {4, 8, 16}})
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

// Same allocator with a long-lived SolverWorkspace: the delta against
// BM_LayeredBfpl is the per-layer allocation churn the arena removes
// (every iteration reuses the previous iteration's buffers, the
// steady-state of a BatchDriver worker).
static void BM_LayeredBfplWorkspace(benchmark::State &State) {
  AllocationProblem P = makeProblem(
      static_cast<unsigned>(State.range(0)),
      static_cast<unsigned>(State.range(1)));
  SolverWorkspace WS;
  for (auto _ : State) {
    AllocationResult R = layeredAllocate(P, LayeredOptions::bfpl(), &WS);
    benchmark::DoNotOptimize(R.SpillCost);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_LayeredBfplWorkspace)
    ->ArgsProduct({{64, 128, 256, 512, 1024}, {4, 8, 16}})
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

static void BM_LayeredNl(benchmark::State &State) {
  AllocationProblem P = makeProblem(
      static_cast<unsigned>(State.range(0)),
      static_cast<unsigned>(State.range(1)));
  for (auto _ : State) {
    AllocationResult R = layeredAllocate(P, LayeredOptions::nl());
    benchmark::DoNotOptimize(R.SpillCost);
  }
}
BENCHMARK(BM_LayeredNl)
    ->ArgsProduct({{128, 512}, {4, 16}})
    ->Unit(benchmark::kMicrosecond);

static void BM_LayeredHeuristic(benchmark::State &State) {
  AllocationProblem P = makeProblem(
      static_cast<unsigned>(State.range(0)),
      static_cast<unsigned>(State.range(1)));
  for (auto _ : State) {
    LayeredHeuristicResult R = layeredHeuristicAllocate(P);
    benchmark::DoNotOptimize(R.Allocation.SpillCost);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_LayeredHeuristic)
    ->ArgsProduct({{64, 128, 256, 512, 1024}, {8}})
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

static void BM_GraphColoring(benchmark::State &State) {
  AllocationProblem P = makeProblem(
      static_cast<unsigned>(State.range(0)),
      static_cast<unsigned>(State.range(1)));
  auto GC = makeAllocator("gc");
  for (auto _ : State) {
    AllocationResult R = GC->allocate(P);
    benchmark::DoNotOptimize(R.SpillCost);
  }
}
BENCHMARK(BM_GraphColoring)
    ->ArgsProduct({{64, 256, 1024}, {8}})
    ->Unit(benchmark::kMicrosecond);

static void BM_OptimalBnB(benchmark::State &State) {
  // Sparser instances (suite-like MaxLive) so the exact solve is the DP/
  // small-search regime the harness actually exercises; the node budget
  // bounds the worst case.
  Rng R(0x0b7a1 + static_cast<unsigned>(State.range(0)));
  ChordalGenOptions Opt;
  Opt.NumVertices = static_cast<unsigned>(State.range(0));
  Opt.TreeSize = Opt.NumVertices * 2;
  Opt.SubtreeSpread = 0.06;
  AllocationProblem P = AllocationProblem::fromChordalGraph(
      randomChordalGraph(R, Opt), {static_cast<unsigned>(State.range(1))});
  OptimalBnBAllocator Optimal(/*NodeLimit=*/2'000'000);
  for (auto _ : State) {
    AllocationResult Result = Optimal.allocate(P);
    benchmark::DoNotOptimize(Result.SpillCost);
  }
}
BENCHMARK(BM_OptimalBnB)
    ->ArgsProduct({{64, 128, 256}, {8}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
