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
/// Every graph the library builds comes out of one path and ends in one
/// frozen CSR view (offsets + one packed neighbor array) that every
/// neighbor walk in MCS, Frank's algorithm and the clique-tree DP streams:
/// the producer appends edges in discovery order to a flat list,
/// removeRepeatedEdges() drops any repeats -- stably, the first occurrence
/// wins -- and the edge-list constructor lays out the CSR directly.
/// ir/Interference, inducedSubgraph(), core/Coalescing and the random
/// generators all build this way; no per-vertex lists are allocated and
/// there is no vertex-count cap.
///
/// addVertex()/addEdge() serve hand-built test graphs and the incremental
/// reference of fuzz/BuildReference.h: they keep per-vertex adjacency
/// lists, addEdge() deduplicates by scanning the smaller list, and
/// compress() flattens the lists into the same CSR and releases them.
/// Neighbor order is load-bearing -- MCS bucket tie-breaking and with it
/// every PEO, clique cover and DP result depends on it -- and it is the
/// same either way: a vertex's neighbors appear in the order of the first
/// occurrences of its edges.  addEdge() in list order followed by
/// compress() and the edge-list constructor give identical graphs.
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

/// A non-owning view of one vertex's neighbor list, valid over both the
/// mutable adjacency-list storage and the compressed CSR storage.  Iterates
/// in edge-insertion order in both cases.  Invalidated by addVertex /
/// addEdge / compress on the owning graph.
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

/// An undirected graph with per-vertex weights and optional vertex names.
///
/// addEdge() deduplicates edges and rejects self-loops; the edge-list
/// constructor requires a list free of both (see removeRepeatedEdges).
/// Adjacency is kept in insertion order -- algorithms that need determinism
/// across runs get it because the whole library is deterministic (no
/// pointer ordering anywhere).
class Graph {
public:
  Graph() = default;

  /// Creates a mutable graph with \p NumVertices vertices of weight 0.
  explicit Graph(unsigned NumVertices)
      : Adjacency(NumVertices), Weights(NumVertices, 0) {}

  /// Builds a frozen graph with one vertex per entry of \p VertexWeights
  /// straight into the CSR view from \p Edges, which must be free of
  /// duplicates and self-loops.  Each vertex's neighbors come out in the
  /// order its edges appear in \p Edges: exactly the graph that addEdge()
  /// over \p Edges in order followed by compress() would give.
  /// \p VertexNames is empty or holds one (possibly empty) name per vertex.
  Graph(std::vector<Weight> VertexWeights, const std::vector<GraphEdge> &Edges,
        std::vector<std::string> VertexNames = {});

  /// Adds a vertex with weight \p W and returns its id.
  /// \pre the graph is not compressed.
  VertexId addVertex(Weight W = 0, std::string Name = {});

  /// Adds the undirected edge {U, V} unless it already exists (found by
  /// hasEdge's scan).
  /// \returns true if the edge was inserted, false if it was present.
  /// \pre U != V, both are valid vertex ids, and the graph is not
  /// compressed.
  bool addEdge(VertexId U, VertexId V);

  /// Returns true if the undirected edge {U, V} exists: a scan of the
  /// smaller neighbor list.
  bool hasEdge(VertexId U, VertexId V) const;

  unsigned numVertices() const {
    return static_cast<unsigned>(Weights.size());
  }
  size_t numEdges() const { return EdgeCount; }

  /// Freezes the edge set and flattens adjacency into a CSR (offsets +
  /// packed neighbor array) so neighbor walks stream contiguous memory.
  /// Iteration order -- and with it every downstream result -- is
  /// unchanged.  Releases the adjacency lists.  Idempotent; addVertex/
  /// addEdge are no longer allowed.  Called at problem-construction freeze
  /// points (AllocationProblem::fromChordalGraph / fromGeneralGraph);
  /// graphs from the edge-list constructor are born frozen.
  void compress();

  /// True once compress() ran.
  bool compressed() const { return Compressed; }

  NeighborRange neighbors(VertexId V) const {
    assert(V < numVertices() && "vertex out of range");
    if (Compressed) {
      const VertexId *Base = CsrNeighbors.data();
      return {Base + CsrOffsets[V], Base + CsrOffsets[V + 1]};
    }
    const std::vector<VertexId> &List = Adjacency[V];
    return {List.data(), List.data() + List.size()};
  }

  unsigned degree(VertexId V) const {
    assert(V < numVertices() && "vertex out of range");
    if (Compressed)
      return CsrOffsets[V + 1] - CsrOffsets[V];
    return static_cast<unsigned>(Adjacency[V].size());
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

  /// Optional human-readable name; empty when never set.
  const std::string &name(VertexId V) const;
  void setName(VertexId V, std::string Name);

  /// Sum of all vertex weights (the cost of spilling everything).
  Weight totalWeight() const;

  /// Sum of weights over \p Subset.
  Weight weightOf(const std::vector<VertexId> &Subset) const;

  /// Returns true if \p Subset contains no two adjacent vertices.
  bool isStableSet(const std::vector<VertexId> &Subset) const;

  /// Builds the subgraph induced by \p Keep (weights and names carried
  /// over) through the edge-list constructor, so the result is frozen.
  /// New vertex I is Keep[I].
  /// \param [out] OldToNew if non-null, receives a map of size numVertices()
  ///   with the new id of each kept vertex and ~0u for dropped ones.
  Graph inducedSubgraph(const std::vector<VertexId> &Keep,
                        std::vector<VertexId> *OldToNew = nullptr) const;

  /// Renders the graph in Graphviz DOT syntax (used by the examples).
  /// Vertices in \p Highlight are drawn filled.
  std::string toDot(const std::vector<VertexId> &Highlight = {}) const;

private:
  /// Insertion-order adjacency lists; emptied (storage released) by
  /// compress().
  std::vector<std::vector<VertexId>> Adjacency;
  std::vector<Weight> Weights;
  std::vector<std::string> Names;
  size_t EdgeCount = 0;

  /// CSR view, valid once Compressed: CsrOffsets has numVertices()+1
  /// entries; vertex V's neighbors are CsrNeighbors[CsrOffsets[V] ..
  /// CsrOffsets[V+1]).
  std::vector<uint32_t> CsrOffsets;
  std::vector<VertexId> CsrNeighbors;
  bool Compressed = false;
};

} // namespace layra

#endif // LAYRA_GRAPH_GRAPH_H
