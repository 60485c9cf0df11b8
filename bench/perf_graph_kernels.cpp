//===- bench/perf_graph_kernels.cpp - Graph kernel micro-benchmarks -------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks of the chordal primitives the layered allocator is
/// built from: MCS (PEO), maximal cliques, Frank's maximum weighted stable
/// set, and the clique-tree construction.  Frank's algorithm is the
/// per-layer O(|V|+|E|) primitive behind the paper's complexity claim.
///
//===----------------------------------------------------------------------===//

#include "graph/Chordal.h"
#include "graph/Generators.h"
#include "graph/StableSet.h"

#include <benchmark/benchmark.h>

using namespace layra;

namespace {
Graph makeGraph(unsigned NumVertices) {
  Rng R(0xfeed + NumVertices);
  ChordalGenOptions Opt;
  Opt.NumVertices = NumVertices;
  Opt.TreeSize = NumVertices;
  Opt.SubtreeSpread = 0.15;
  return randomChordalGraph(R, Opt);
}

std::vector<Weight> weightsOf(const Graph &G) {
  std::vector<Weight> W(G.numVertices());
  for (VertexId V = 0; V < G.numVertices(); ++V)
    W[V] = G.weight(V);
  return W;
}
} // namespace

static void BM_MaximumCardinalitySearch(benchmark::State &State) {
  Graph G = makeGraph(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    EliminationOrder Peo = maximumCardinalitySearch(G);
    benchmark::DoNotOptimize(Peo.Order.data());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_MaximumCardinalitySearch)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

static void BM_LexBfs(benchmark::State &State) {
  Graph G = makeGraph(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    EliminationOrder Peo = lexBfs(G);
    benchmark::DoNotOptimize(Peo.Order.data());
  }
}
BENCHMARK(BM_LexBfs)->RangeMultiplier(4)->Range(64, 1024)->Unit(
    benchmark::kMicrosecond);

static void BM_FrankStableSet(benchmark::State &State) {
  Graph G = makeGraph(static_cast<unsigned>(State.range(0)));
  EliminationOrder Peo = maximumCardinalitySearch(G);
  std::vector<Weight> W = weightsOf(G);
  for (auto _ : State) {
    StableSetResult R = maximumWeightedStableSetChordal(G, Peo, W);
    benchmark::DoNotOptimize(R.TotalWeight);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_FrankStableSet)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

static void BM_MaximalCliques(benchmark::State &State) {
  Graph G = makeGraph(static_cast<unsigned>(State.range(0)));
  EliminationOrder Peo = maximumCardinalitySearch(G);
  for (auto _ : State) {
    CliqueCover Cover = maximalCliquesChordal(G, Peo);
    benchmark::DoNotOptimize(Cover.numCliques());
  }
}
BENCHMARK(BM_MaximalCliques)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

static void BM_CliqueTree(benchmark::State &State) {
  Graph G = makeGraph(static_cast<unsigned>(State.range(0)));
  EliminationOrder Peo = maximumCardinalitySearch(G);
  CliqueCover Cover = maximalCliquesChordal(G, Peo);
  for (auto _ : State) {
    CliqueTree Tree = buildCliqueTree(G, Cover);
    benchmark::DoNotOptimize(Tree.Parent.data());
  }
}
BENCHMARK(BM_CliqueTree)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMicrosecond);

static void BM_ChordalityCheck(benchmark::State &State) {
  Graph G = makeGraph(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(isChordal(G));
}
BENCHMARK(BM_ChordalityCheck)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
