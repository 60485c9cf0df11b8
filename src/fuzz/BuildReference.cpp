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

using namespace layra;

Graph layra::referenceInterferenceGraph(const Function &F,
                                        const TargetDesc &Target,
                                        size_t *Repeats) {
  Liveness Live(F);
  std::vector<Weight> Costs = computeSpillCosts(F, Target);
  std::vector<GraphEdge> Discovered;
  buildInterference(F, Live, Costs, nullptr, /*CollectPointSets=*/false,
                    &Discovered);
  Graph G;
  for (ValueId V = 0; V < F.numValues(); ++V)
    G.addVertex(Costs[V], F.valueName(V));
  size_t Dropped = 0;
  for (const GraphEdge &E : Discovered)
    Dropped += G.addEdge(E.U, E.V) ? 0 : 1;
  G.compress();
  if (Repeats)
    *Repeats = Dropped;
  return G;
}

std::string layra::diffAgainstReference(const AllocationProblem &P,
                                        const Graph &Reference) {
  const Graph &G = P.graph();
  if (G.numVertices() != Reference.numVertices())
    return "vertex count " + std::to_string(G.numVertices()) +
           " differs from the reference's " +
           std::to_string(Reference.numVertices());
  if (G.numEdges() != Reference.numEdges())
    return "edge count " + std::to_string(G.numEdges()) +
           " differs from the reference's " +
           std::to_string(Reference.numEdges());
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    std::string At = " of vertex " + std::to_string(V);
    if (G.weight(V) != Reference.weight(V))
      return "weight" + At + " differs from the reference";
    if (G.name(V) != Reference.name(V))
      return "name" + At + " differs from the reference";
    if (G.neighbors(V) != Reference.neighbors(V))
      return "neighbor list" + At + " differs from the reference";
  }
  if (!P.Chordal)
    return {};

  EliminationOrder Peo = maximumCardinalitySearch(Reference);
  if (!isPerfectEliminationOrder(Reference, Peo))
    return "the reference MCS order is not a PEO, yet the build accepted it";
  if (P.Peo.Order != Peo.Order || P.Peo.Position != Peo.Position)
    return "elimination order differs from the reference MCS";
  if (P.Cliques != maximalCliquesChordal(Reference, Peo))
    return "clique cover differs from maximalCliquesChordal";
  return {};
}
