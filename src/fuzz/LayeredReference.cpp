//===- fuzz/LayeredReference.cpp - Reference layered allocator -------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "fuzz/LayeredReference.h"

#include "core/StepLayer.h"
#include "graph/StableSet.h"

#include <algorithm>

using namespace layra;

AllocationResult layra::referenceLayeredAllocate(const AllocationProblem &P,
                                                 const LayeredOptions &Options) {
  const Graph &G = P.graph();
  unsigned N = G.numVertices();
  unsigned R = P.uniformBudget();
  std::vector<char> Candidates(N, 1), Allocated(N, 0);
  std::vector<unsigned> PerClique(P.Cliques.numCliques(), 0);
  std::vector<char> CliqueClosed(P.Cliques.numCliques(), 0);
  CliqueTree StepTree;
  bool StepTreeBuilt = false;

  // Raw weights, or w * |V| + the candidate degree, recounted per layer.
  auto LayerWeights = [&] {
    std::vector<Weight> W(N, 0);
    for (VertexId V = 0; V < N; ++V) {
      if (!Candidates[V])
        continue;
      Weight Degree = 0;
      if (Options.Biased)
        for (VertexId U : G.neighbors(V))
          Degree += Candidates[U] ? 1 : 0;
      W[V] = Options.Biased ? G.weight(V) * static_cast<Weight>(N) + Degree
                            : G.weight(V);
    }
    return W;
  };
  auto ComputeLayer = [&](unsigned Bound) {
    std::vector<Weight> W = LayerWeights();
    if (Bound == 1)
      return maximumWeightedStableSetChordal(G, P.Peo, W, Candidates).Set;
    if (!StepTreeBuilt) {
      StepTree = buildCliqueTree(G, P.Cliques);
      StepTreeBuilt = true;
    }
    return optimalBoundedLayer(P, Candidates, W, Bound, nullptr, &StepTree);
  };
  auto Commit = [&](const std::vector<VertexId> &Layer) {
    for (VertexId V : Layer) {
      Allocated[V] = 1;
      Candidates[V] = 0;
    }
  };
  auto Close = [&](unsigned C) {
    CliqueClosed[C] = 1;
    for (VertexId U : P.Cliques.clique(C))
      Candidates[U] = 0;
  };
  // Paper Algorithm 4 (UPDATE).
  auto UpdateCliques = [&](const std::vector<VertexId> &Fresh) {
    for (VertexId V : Fresh)
      for (unsigned C : P.Cliques.cliquesOf(V))
        if (!CliqueClosed[C] && ++PerClique[C] >= R)
          Close(C);
  };

  // Phase 1 (Algorithm 2).
  unsigned Count = 0;
  while (Count < R) {
    unsigned Bound = std::min(Options.Step, R - Count);
    std::vector<VertexId> Layer = ComputeLayer(Bound);
    if (Layer.empty())
      break;
    Commit(Layer);
    if (Options.FixedPoint)
      UpdateCliques(Layer);
    Count += Bound;
  }

  // Phase 2 (Algorithm 3): the UPDATE call before the loop, as a sweep for
  // saturated cliques, then one stable-set layer at a time.
  if (Options.FixedPoint) {
    for (unsigned C = 0; C < P.Cliques.numCliques(); ++C)
      if (!CliqueClosed[C] && PerClique[C] >= R)
        Close(C);
    for (;;) {
      std::vector<VertexId> Layer = ComputeLayer(1);
      if (Layer.empty())
        break;
      Commit(Layer);
      UpdateCliques(Layer);
    }
  }
  return AllocationResult::fromFlags(G, std::move(Allocated));
}
