//===- graph/Graph.cpp - Weighted undirected interference graph ----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Graph.h"

#include "core/SolverWorkspace.h"

#include <algorithm>

using namespace layra;

void layra::removeRepeatedEdges(std::vector<GraphEdge> &Edges,
                                unsigned NumVertices, SolverWorkspace *WS) {
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  // A stable counting sort buckets the edge indices by lower endpoint;
  // walking one bucket in list order, an upper endpoint already stamped
  // with the bucket's vertex marks a repeat.
  unsigned N = NumVertices;
  std::vector<uint32_t> &End = WS->acquire(WS->EdgeDedup.BucketEnd, N, 0u);
  for (const GraphEdge &E : Edges)
    ++End[std::min(E.U, E.V)];
  uint32_t Sum = 0;
  for (VertexId L = 0; L < N; ++L) {
    Sum += End[L];
    End[L] = Sum - End[L]; // Bucket start for now; the fill ends it.
  }
  std::vector<uint32_t> &Bucket =
      WS->acquire(WS->EdgeDedup.Bucket, Edges.size(), 0u);
  for (uint32_t I = 0; I < Edges.size(); ++I)
    Bucket[End[std::min(Edges[I].U, Edges[I].V)]++] = I;

  std::vector<VertexId> &Stamp =
      WS->acquire(WS->EdgeDedup.Stamp, N, VertexId(~0u));
  bool Repeats = false;
  uint32_t Begin = 0;
  for (VertexId L = 0; L < N; ++L) {
    for (uint32_t I = Begin; I < End[L]; ++I) {
      GraphEdge &E = Edges[Bucket[I]];
      VertexId Upper = std::max(E.U, E.V);
      if (Stamp[Upper] == L) {
        E.V = E.U; // A self-loop marks the repeat for removal below.
        Repeats = true;
      } else {
        Stamp[Upper] = L;
      }
    }
    Begin = End[L];
  }
  if (Repeats)
    Edges.erase(std::remove_if(Edges.begin(), Edges.end(),
                               [](const GraphEdge &E) { return E.U == E.V; }),
                Edges.end());
}

Graph::Graph(std::vector<Weight> VertexWeights,
             const std::vector<GraphEdge> &Edges)
    : Weights(std::move(VertexWeights)), EdgeCount(Edges.size()) {
  unsigned N = numVertices();
  assert(2 * EdgeCount <= UINT32_MAX && "edge count overflows CSR offsets");
  // Degrees into CsrOffsets[V + 1], prefix-summed into start offsets.
  CsrOffsets.assign(N + 1, 0);
  for (const GraphEdge &E : Edges) {
    assert(E.U < N && E.V < N && "vertex out of range");
    assert(E.U != E.V && "self-loops are not interference edges");
    ++CsrOffsets[E.U + 1];
    ++CsrOffsets[E.V + 1];
  }
  for (VertexId V = 0; V < N; ++V)
    CsrOffsets[V + 1] += CsrOffsets[V];
  // Fill in list order, using CsrOffsets[V] as V's cursor; afterwards each
  // cursor sits on the next vertex's start, so shift them back by one.
  CsrNeighbors.resize(2 * EdgeCount);
  for (const GraphEdge &E : Edges) {
    CsrNeighbors[CsrOffsets[E.U]++] = E.V;
    CsrNeighbors[CsrOffsets[E.V]++] = E.U;
  }
  for (VertexId V = N; V > 0; --V)
    CsrOffsets[V] = CsrOffsets[V - 1];
  CsrOffsets[0] = 0;
#ifndef NDEBUG
  std::vector<VertexId> Seen(N, ~0u);
  for (VertexId V = 0; V < N; ++V) {
    assert(Weights[V] >= 0 && "spill costs are non-negative");
    for (VertexId U : neighbors(V)) {
      assert(Seen[U] != V && "duplicate edge in the edge list");
      Seen[U] = V;
    }
  }
#endif
}

bool Graph::hasEdge(VertexId U, VertexId V) const {
  assert(U < numVertices() && V < numVertices() && "vertex out of range");
  if (degree(U) > degree(V))
    std::swap(U, V);
  NeighborRange Smaller = neighbors(U);
  return std::find(Smaller.begin(), Smaller.end(), V) != Smaller.end();
}

Weight Graph::totalWeight() const {
  Weight Sum = 0;
  for (Weight W : Weights)
    Sum += W;
  return Sum;
}

Weight Graph::weightOf(const std::vector<VertexId> &Subset) const {
  Weight Sum = 0;
  for (VertexId V : Subset)
    Sum += weight(V);
  return Sum;
}

bool Graph::isStableSet(const std::vector<VertexId> &Subset) const {
  std::vector<char> InSet(numVertices(), 0);
  for (VertexId V : Subset) {
    assert(V < numVertices() && "vertex out of range");
    InSet[V] = 1;
  }
  for (VertexId V : Subset)
    for (VertexId U : neighbors(V))
      if (InSet[U])
        return false;
  return true;
}

Graph Graph::inducedSubgraph(const std::vector<VertexId> &Keep,
                             std::vector<VertexId> *OldToNew) const {
  std::vector<VertexId> Map(numVertices(), ~0u);
  std::vector<Weight> SubWeights;
  for (VertexId V : Keep) {
    assert(V < numVertices() && "vertex out of range");
    assert(Map[V] == ~0u && "duplicate vertex in induced subgraph request");
    Map[V] = static_cast<VertexId>(SubWeights.size());
    SubWeights.push_back(weight(V));
  }
  // Each kept edge once, from its lower-id endpoint: no repeats to drop.
  std::vector<GraphEdge> Edges;
  for (VertexId V : Keep)
    for (VertexId U : neighbors(V))
      if (Map[U] != ~0u && V < U)
        Edges.push_back({Map[V], Map[U]});
  if (OldToNew)
    *OldToNew = std::move(Map);
  return Graph(std::move(SubWeights), Edges);
}

std::string Graph::toDot(const std::vector<VertexId> &Highlight) const {
  std::vector<char> Hot(numVertices(), 0);
  for (VertexId V : Highlight)
    Hot[V] = 1;
  std::string Dot = "graph interference {\n  node [shape=circle];\n";
  for (VertexId V = 0; V < numVertices(); ++V) {
    Dot += "  n" + std::to_string(V) + " [label=\"v" + std::to_string(V);
    Dot += ':';
    Dot += std::to_string(weight(V));
    Dot += '"';
    if (Hot[V])
      Dot += ", style=filled, fillcolor=lightblue";
    Dot += "];\n";
  }
  for (VertexId V = 0; V < numVertices(); ++V)
    for (VertexId U : neighbors(V))
      if (V < U)
        Dot += "  n" + std::to_string(V) + " -- n" + std::to_string(U) + ";\n";
  Dot += "}\n";
  return Dot;
}
