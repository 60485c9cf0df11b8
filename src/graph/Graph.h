//===- graph/Graph.h - Weighted undirected interference graph ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted undirected graph all Layra allocators operate on.  Vertices
/// are dense ids 0..N-1; each vertex carries a non-negative integer weight,
/// interpreted as its estimated spill cost (paper §3: "A spill cost
/// represents the access frequency of a variable").
///
/// A Graph is built one way and is immutable afterwards, except for
/// setWeight(): the producer appends edges in discovery order to a flat
/// list, removeRepeatedEdges() drops any repeats -- stably, the first
/// occurrence wins -- and the edge-list constructor lays out a CSR view
/// (offsets + one packed neighbor array) that every neighbor walk in MCS,
/// Frank's algorithm and the clique-tree DP streams.  ir/Interference,
/// inducedSubgraph(), the random generators and hand-built test graphs
/// all build this way; there is no vertex-count cap.  A graph holds
/// weights and adjacency only: vertex V of an interference graph is value
/// V of its function, so value names stay with the function.
///
/// Neighbor order is load-bearing -- MCS bucket tie-breaking and with it
/// every PEO, clique cover and DP result depends on it: a vertex's
/// neighbors appear in the order of the first occurrences of its edges.
/// fuzz/BuildReference.h checks that order against per-vertex lists it
/// fills itself.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_GRAPH_GRAPH_H
#define LAYRA_GRAPH_GRAPH_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace layra {

class SolverWorkspace;

/// Dense vertex identifier.
using VertexId = unsigned;

/// Spill-cost weight.  Integer so that optimal/heuristic comparisons are
/// exact; the IR cost model produces integers (accesses x block frequency).
using Weight = long long;

/// A non-owning view of one vertex's neighbor list in the CSR, in
/// edge-list order; valid as long as the owning graph.
class NeighborRange {
public:
  using value_type = VertexId;
  using const_iterator = const VertexId *;

  NeighborRange() = default;
  NeighborRange(const VertexId *Begin, const VertexId *End)
      : Begin_(Begin), End_(End) {}

  const VertexId *begin() const { return Begin_; }
  const VertexId *end() const { return End_; }
  std::size_t size() const { return static_cast<std::size_t>(End_ - Begin_); }
  bool empty() const { return Begin_ == End_; }
  VertexId operator[](std::size_t I) const {
    assert(I < size() && "neighbor index out of range");
    return Begin_[I];
  }

  friend bool operator==(const NeighborRange &A, const NeighborRange &B) {
    return A.size() == B.size() && std::equal(A.begin(), A.end(), B.begin());
  }
  friend bool operator!=(const NeighborRange &A, const NeighborRange &B) {
    return !(A == B);
  }

private:
  const VertexId *Begin_ = nullptr;
  const VertexId *End_ = nullptr;
};

/// One undirected edge of an edge list (Graph's bulk constructor).
struct GraphEdge {
  VertexId U;
  VertexId V;
};

/// Drops every repeat of an undirected edge from \p Edges in place,
/// keeping each edge's first occurrence and the order of the survivors --
/// the list Graph's edge-list constructor then needs.  Endpoints must be
/// below \p NumVertices.  O(N + E).  \p WS optionally supplies the
/// scratch.
void removeRepeatedEdges(std::vector<GraphEdge> &Edges, unsigned NumVertices,
                         SolverWorkspace *WS = nullptr);

/// An undirected graph with per-vertex weights; its edges are fixed at
/// construction.
class Graph {
public:
  Graph() = default;

  /// Builds a graph with one vertex per entry of \p VertexWeights straight
  /// into the CSR view from \p Edges, which must be free of repeats and
  /// self-loops (see removeRepeatedEdges).  Each vertex's neighbors come
  /// out in the order its edges appear in \p Edges.
  Graph(std::vector<Weight> VertexWeights, const std::vector<GraphEdge> &Edges);

  /// Returns true if the undirected edge {U, V} exists: a scan of the
  /// smaller neighbor list.
  bool hasEdge(VertexId U, VertexId V) const;

  unsigned numVertices() const {
    return static_cast<unsigned>(Weights.size());
  }
  size_t numEdges() const { return EdgeCount; }

  NeighborRange neighbors(VertexId V) const {
    assert(V < numVertices() && "vertex out of range");
    const VertexId *Base = CsrNeighbors.data();
    return {Base + CsrOffsets[V], Base + CsrOffsets[V + 1]};
  }

  unsigned degree(VertexId V) const {
    assert(V < numVertices() && "vertex out of range");
    return CsrOffsets[V + 1] - CsrOffsets[V];
  }

  Weight weight(VertexId V) const {
    assert(V < numVertices() && "vertex out of range");
    return Weights[V];
  }

  void setWeight(VertexId V, Weight W) {
    assert(V < numVertices() && "vertex out of range");
    assert(W >= 0 && "spill costs are non-negative");
    Weights[V] = W;
  }

  /// Sum of all vertex weights (the cost of spilling everything).
  Weight totalWeight() const;

  /// Sum of weights over \p Subset.
  Weight weightOf(const std::vector<VertexId> &Subset) const;

  /// Returns true if \p Subset contains no two adjacent vertices.
  bool isStableSet(const std::vector<VertexId> &Subset) const;

  /// Builds the subgraph induced by \p Keep (weights carried over) through
  /// the edge-list constructor.  New vertex I is Keep[I].
  /// \param [out] OldToNew if non-null, receives a map of size numVertices()
  ///   with the new id of each kept vertex and ~0u for dropped ones.
  Graph inducedSubgraph(const std::vector<VertexId> &Keep,
                        std::vector<VertexId> *OldToNew = nullptr) const;

  /// Renders the graph in Graphviz DOT syntax (used by the examples),
  /// labelling vertex V "vV:weight".  Vertices in \p Highlight are drawn
  /// filled.
  std::string toDot(const std::vector<VertexId> &Highlight = {}) const;

private:
  std::vector<Weight> Weights;
  size_t EdgeCount = 0;

  /// CsrOffsets has numVertices()+1 entries; vertex V's neighbors are
  /// CsrNeighbors[CsrOffsets[V] .. CsrOffsets[V+1]).
  std::vector<uint32_t> CsrOffsets;
  std::vector<VertexId> CsrNeighbors;
};

} // namespace layra

#endif // LAYRA_GRAPH_GRAPH_H
