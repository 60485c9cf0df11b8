//===- core/Layered.cpp - Layered-optimal allocation (the paper) -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/Layered.h"

#include "core/SolverWorkspace.h"
#include "core/StepLayer.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace layra;

namespace {
/// Working state of one layered run.  All buffers are checked out of the
/// workspace, so consecutive runs sharing one workspace reuse the same
/// arenas.
///
/// A layer costs its candidates and their edges, not the whole problem:
/// the candidates stay in PEO order and are compacted once per layer, each
/// vertex's candidate degree (the §4.1 bias) is kept exact as vertices
/// leave the candidate set, Frank's phase 1 charges only later neighbors
/// (an earlier neighbor's residual is already 0) and reads them from the
/// problem's PEO, so a run builds no adjacency of its own, and
/// blue-adjacent marks are layer stamps, so no N-sized buffer is refilled
/// per layer.
/// fuzz/LayeredReference.h keeps the per-layer recount as the reference.
struct LayeredState {
  const AllocationProblem &P;
  const Graph &G;
  const LayeredOptions &Opt;
  SolverWorkspace &WS;
  std::vector<char> &Candidates;       // Still eligible for allocation.
  std::vector<char> &Allocated;        // Result flags.
  std::vector<unsigned> &PerClique;    // Allocated count per maximal clique.
  std::vector<char> &CliqueClosed;     // Clique reached R allocated vertices.
  std::vector<VertexId> &Order;        // Candidates, in PEO order.
  std::vector<unsigned> &Degree;       // Candidate neighbors (Biased only).
  std::vector<Weight> &Residual;       // Frank's residual weights.
  std::vector<VertexId> &Red;          // Frank's red stack.
  std::vector<unsigned> &BlueStamp;    // Layer that last marked a vertex.
  unsigned LayerNo = 0;
  /// Clique tree for the step >= 2 DP; built once per run on first use so
  /// every layer shares it.
  CliqueTree StepTree;
  bool StepTreeBuilt = false;

  LayeredState(const AllocationProblem &P, const LayeredOptions &Opt,
               SolverWorkspace &WS)
      : P(P), G(P.graph()), Opt(Opt), WS(WS),
        Candidates(WS.acquire(WS.Layered.Candidates, G.numVertices(), char(1))),
        Allocated(WS.acquire(WS.Layered.Allocated, G.numVertices(), char(0))),
        PerClique(WS.acquire(WS.Layered.PerClique, P.Cliques.numCliques(), 0u)),
        CliqueClosed(WS.acquire(WS.Layered.CliqueClosed,
                                P.Cliques.numCliques(), char(0))),
        Order(WS.acquireCleared(WS.Layered.Order)),
        Degree(WS.acquire(WS.Layered.Degree, Opt.Biased ? G.numVertices() : 0,
                          0u)),
        Residual(WS.acquire(WS.Layered.Residual, G.numVertices(), Weight(0))),
        Red(WS.acquireCleared(WS.Layered.Red)),
        BlueStamp(WS.acquire(WS.Layered.BlueStamp, G.numVertices(), 0u)) {
    Order.assign(P.Peo.Order.begin(), P.Peo.Order.end());
    for (VertexId V = 0; V < Degree.size(); ++V)
      Degree[V] = static_cast<unsigned>(G.neighbors(V).size());
  }

  /// The layer weight of candidate \p V: raw, or biased by its remaining
  /// interference degree (paper §4.1).  Biasing w -> w*|V| + |adj| preserves
  /// the order of distinct weights and breaks ties toward vertices whose
  /// allocation removes more interference among the remaining candidates.
  Weight layerWeight(VertexId V) const {
    if (!Opt.Biased)
      return G.weight(V);
    return G.weight(V) * static_cast<Weight>(G.numVertices()) + Degree[V];
  }

  /// Frank's algorithm (paper Algorithm 1) over the candidates, as
  /// maximumWeightedStableSetChordal computes it with the candidate mask.
  std::vector<VertexId> stableLayer() {
    PhaseSpan StableSetSpan(Phase::StableSet);
    // Phase 1: sweep the candidates in PEO order with residual weights;
    // mark red every vertex whose residual is still positive and charge it
    // to its later candidate neighbors.
    for (VertexId V : Order) {
      Residual[V] = layerWeight(V);
      assert(Residual[V] >= 0 && "stable-set weights must be non-negative");
    }
    Red.clear();
    for (VertexId V : Order) {
      Weight Charge = Residual[V];
      if (Charge <= 0)
        continue;
      Red.push_back(V);
      for (VertexId U : P.Peo.laterOf(V))
        if (Candidates[U])
          Residual[U] = std::max<Weight>(0, Residual[U] - Charge);
    }
    // Phase 2: pop red vertices in reverse; keep ("mark blue") each one no
    // blue vertex of this layer is adjacent to.
    ++LayerNo;
    std::vector<VertexId> Layer;
    for (auto It = Red.rbegin(); It != Red.rend(); ++It) {
      if (BlueStamp[*It] == LayerNo)
        continue;
      Layer.push_back(*It);
      for (VertexId U : G.neighbors(*It))
        BlueStamp[U] = LayerNo;
    }
    return Layer;
  }

  /// Computes one optimal layer of at most \p Bound registers over the
  /// current candidates.  Empty result means no remaining candidate has
  /// positive weight.
  std::vector<VertexId> computeLayer(unsigned Bound) {
    Order.erase(std::remove_if(Order.begin(), Order.end(),
                               [&](VertexId V) { return !Candidates[V]; }),
                Order.end());
    if (Bound == 1)
      return stableLayer();
    if (!StepTreeBuilt) {
      StepTree = buildCliqueTree(G, P.Cliques);
      StepTreeBuilt = true;
    }
    std::vector<Weight> &W =
        WS.acquire(WS.Layered.LayerWeights, G.numVertices(), Weight(0));
    for (VertexId V : Order)
      W[V] = layerWeight(V);
    return optimalBoundedLayer(P, Candidates, W, Bound, &WS, &StepTree);
  }

  /// Removes candidate \p V from the candidate set.
  void leave(VertexId V) {
    Candidates[V] = 0;
    if (Opt.Biased)
      for (VertexId U : G.neighbors(V))
        --Degree[U];
  }

  /// Marks \p Layer allocated and removes it from the candidates.
  void commitLayer(const std::vector<VertexId> &Layer) {
    for (VertexId V : Layer) {
      assert(Candidates[V] && !Allocated[V] && "layer reused a vertex");
      Allocated[V] = 1;
      leave(V);
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
          if (Candidates[U])
            leave(U);
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
  unsigned R = P.uniformBudget();
  // Without registers every clique is saturated from the start.
  if (R == 0)
    return AllocationResult::fromFlags(
        P.graph(), std::vector<char>(P.graph().numVertices(), 0));
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();

  LayeredState S(P, Options, *WS);

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
  // until nothing changes.  Algorithm 3 calls UPDATE once before the loop;
  // updateCliques above already closed every clique that phase 1
  // saturated, the moment it reached R.
  if (Options.FixedPoint)
    for (;;) {
      std::vector<VertexId> Layer = S.computeLayer(1);
      if (Layer.empty())
        break;
      S.commitLayer(Layer);
      S.updateCliques(Layer);
    }

  // The result owns its flags: copy them out of the workspace buffer at
  // exact size so the arena keeps its capacity for the next run.
  AllocationResult Result = AllocationResult::fromFlags(
      P.graph(), std::vector<char>(S.Allocated.begin(), S.Allocated.end()));
  assert(isFeasibleAllocation(P, Result.Allocated) &&
         "layered allocation violated a clique constraint");
  return Result;
}
