//===- fuzz/BuildReference.cpp - Reference problem construction -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "fuzz/BuildReference.h"

#include "graph/Chordal.h"
#include "ir/Interference.h"
#include "ir/Liveness.h"

#include <algorithm>

using namespace layra;

ReferenceGraph layra::referenceInterferenceGraph(const Function &F,
                                                 const TargetDesc &Target,
                                                 size_t *Repeats) {
  Liveness Live(F);
  ReferenceGraph G;
  G.Weights = computeSpillCosts(F, Target);
  std::vector<GraphEdge> Discovered;
  buildInterference(F, Live, G.Weights, nullptr, /*CollectPointSets=*/false,
                    &Discovered);
  G.Neighbors.resize(F.numValues());
  size_t Dropped = 0;
  for (const GraphEdge &E : Discovered) {
    std::vector<VertexId> &AtU = G.Neighbors[E.U];
    std::vector<VertexId> &AtV = G.Neighbors[E.V];
    bool Present = AtU.size() <= AtV.size()
                       ? std::find(AtU.begin(), AtU.end(), E.V) != AtU.end()
                       : std::find(AtV.begin(), AtV.end(), E.U) != AtV.end();
    if (Present) {
      ++Dropped;
      continue;
    }
    AtU.push_back(E.V);
    AtV.push_back(E.U);
    ++G.NumEdges;
  }
  if (Repeats)
    *Repeats = Dropped;
  return G;
}

std::string layra::diffAgainstReference(const AllocationProblem &P,
                                        const ReferenceGraph &Reference) {
  const Graph &G = P.graph();
  if (G.numVertices() != Reference.Weights.size())
    return "vertex count " + std::to_string(G.numVertices()) +
           " differs from the reference's " +
           std::to_string(Reference.Weights.size());
  if (G.numEdges() != Reference.NumEdges)
    return "edge count " + std::to_string(G.numEdges()) +
           " differs from the reference's " +
           std::to_string(Reference.NumEdges);
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    std::string At = " of vertex " + std::to_string(V);
    if (G.weight(V) != Reference.Weights[V])
      return "weight" + At + " differs from the reference";
    const std::vector<VertexId> &Want = Reference.Neighbors[V];
    if (G.neighbors(V) != NeighborRange(Want.data(), Want.data() + Want.size()))
      return "neighbor list" + At + " differs from the reference";
  }
  if (!P.Chordal)
    return {};

  // G's lists now equal the reference's, so the reference passes run on G.
  EliminationOrder Peo = maximumCardinalitySearch(G);
  if (!isPerfectEliminationOrder(G, Peo))
    return "the reference MCS order is not a PEO, yet the build accepted it";
  if (P.Peo.Order != Peo.Order || P.Peo.Position != Peo.Position)
    return "elimination order differs from the reference MCS";
  if (P.Cliques != maximalCliquesChordal(G, Peo))
    return "clique cover differs from maximalCliquesChordal";
  return {};
}
