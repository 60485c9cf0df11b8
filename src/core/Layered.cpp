//===- core/Layered.cpp - Layered-optimal allocation (the paper) -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/Layered.h"

#include "core/SolverWorkspace.h"
#include "core/StepLayer.h"
#include "graph/StableSet.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace layra;

namespace {
/// Working state of one layered run.  All buffers are checked out of the
/// workspace, so consecutive layers (and consecutive runs sharing one
/// workspace) reuse the same arenas.
struct LayeredState {
  const AllocationProblem &P;
  const LayeredOptions &Opt;
  SolverWorkspace &WS;
  std::vector<char> &Candidates;       // Still eligible for allocation.
  std::vector<char> &Allocated;        // Result flags.
  std::vector<unsigned> &PerClique;    // Allocated count per maximal clique.
  std::vector<char> &CliqueClosed;     // Clique reached R allocated vertices.
  /// Clique tree for the step >= 2 DP; built once per run on first use so
  /// every layer shares it.
  CliqueTree StepTree;
  bool StepTreeBuilt = false;

  LayeredState(const AllocationProblem &P, const LayeredOptions &Opt,
               SolverWorkspace &WS)
      : P(P), Opt(Opt), WS(WS),
        Candidates(
            WS.acquire(WS.Layered.Candidates, P.graph().numVertices(), char(1))),
        Allocated(
            WS.acquire(WS.Layered.Allocated, P.graph().numVertices(), char(0))),
        PerClique(WS.acquire(WS.Layered.PerClique, P.Cliques.numCliques(), 0u)),
        CliqueClosed(WS.acquire(WS.Layered.CliqueClosed,
                                P.Cliques.numCliques(), char(0))) {}

  /// Weights for the next layer: raw, or biased by the remaining
  /// interference degree (paper §4.1).  Biasing w -> w*|V| + |adj| preserves
  /// the order of distinct weights and breaks ties toward vertices whose
  /// allocation removes more interference among the remaining candidates.
  /// Fills the workspace weight buffer in place.
  const std::vector<Weight> &layerWeights() {
    unsigned N = P.graph().numVertices();
    std::vector<Weight> &W = WS.acquire(WS.Layered.LayerWeights, N, Weight(0));
    for (VertexId V = 0; V < N; ++V) {
      if (!Candidates[V])
        continue;
      if (!Opt.Biased) {
        W[V] = P.graph().weight(V);
        continue;
      }
      Weight Degree = 0;
      for (VertexId U : P.graph().neighbors(V))
        Degree += Candidates[U] ? 1 : 0;
      W[V] = P.graph().weight(V) * static_cast<Weight>(N) + Degree;
    }
    return W;
  }

  /// Computes one optimal layer of at most \p Bound registers over the
  /// current candidates.  Empty result means no remaining candidate has
  /// positive weight.
  std::vector<VertexId> computeLayer(unsigned Bound) {
    const std::vector<Weight> &W = layerWeights();
    if (Bound == 1)
      return maximumWeightedStableSetChordal(P.graph(), P.Peo, W, Candidates, &WS)
          .Set;
    if (!StepTreeBuilt) {
      StepTree = buildCliqueTree(P.graph(), P.Cliques);
      StepTreeBuilt = true;
    }
    return optimalBoundedLayer(P, Candidates, W, Bound, &WS, &StepTree);
  }

  /// Marks \p Layer allocated and removes it from the candidates.
  void commitLayer(const std::vector<VertexId> &Layer) {
    for (VertexId V : Layer) {
      assert(Candidates[V] && !Allocated[V] && "layer reused a vertex");
      Allocated[V] = 1;
      Candidates[V] = 0;
    }
  }

  /// Paper Algorithm 4 (UPDATE): accounts freshly allocated vertices per
  /// clique; cliques that reach R allocated vertices are closed and their
  /// remaining vertices leave the candidate set.
  void updateCliques(const std::vector<VertexId> &Fresh) {
    for (VertexId V : Fresh)
      for (unsigned C : P.Cliques.cliquesOf(V)) {
        if (CliqueClosed[C])
          continue;
        if (++PerClique[C] < P.uniformBudget())
          continue;
        CliqueClosed[C] = 1;
        for (VertexId U : P.Cliques.clique(C))
          Candidates[U] = 0;
      }
  }
};
} // namespace

AllocationResult layra::layeredAllocate(const AllocationProblem &P,
                                        const LayeredOptions &Options,
                                        SolverWorkspace *WS) {
  if (!P.Chordal)
    layraFatalError("layeredAllocate requires a chordal instance; "
                    "use layeredHeuristicAllocate for general graphs");
  assert(Options.Step >= 1 && Options.Step <= kMaxLayerStep &&
         "unsupported step");
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();

  LayeredState S(P, Options, *WS);
  unsigned R = P.uniformBudget();

  // Phase 1 (paper Algorithm 2): stack optimal layers until R registers are
  // filled.  Each layer raises every clique's allocated count by at most the
  // layer bound, so the union stays R-feasible.
  unsigned Count = 0;
  while (Count < R) {
    unsigned Bound = std::min(Options.Step, R - Count);
    std::vector<VertexId> Layer = S.computeLayer(Bound);
    if (Layer.empty())
      break; // Only zero-weight (or no) candidates remain.
    S.commitLayer(Layer);
    if (Options.FixedPoint)
      S.updateCliques(Layer);
    Count += Bound;
  }

  // Phase 2 (paper Algorithm 3, lines 8-13): allocate any vertex whose
  // cliques still have spare registers, one stable-set layer at a time,
  // until nothing changes.
  if (Options.FixedPoint) {
    // Close cliques the first phase saturated (Algorithm 3 line 8 calls
    // UPDATE once before the loop; updateCliques above already accounted
    // the counts, so just sweep for saturated cliques).
    for (unsigned C = 0; C < P.Cliques.numCliques(); ++C)
      if (!S.CliqueClosed[C] && S.PerClique[C] >= R) {
        S.CliqueClosed[C] = 1;
        for (VertexId U : P.Cliques.clique(C))
          S.Candidates[U] = 0;
      }
    for (;;) {
      std::vector<VertexId> Layer = S.computeLayer(1);
      if (Layer.empty())
        break;
      S.commitLayer(Layer);
      S.updateCliques(Layer);
    }
  }

  // The result owns its flags: copy them out of the workspace buffer at
  // exact size so the arena keeps its capacity for the next run.
  AllocationResult Result = AllocationResult::fromFlags(
      P.graph(), std::vector<char>(S.Allocated.begin(), S.Allocated.end()));
  assert(isFeasibleAllocation(P, Result.Allocated) &&
         "layered allocation violated a clique constraint");
  return Result;
}
