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
/// Storage has two lifecycles, and both end in the same frozen CSR view
/// (offsets + one packed neighbor array) that every neighbor walk in MCS,
/// Frank's algorithm and the clique-tree DP streams:
///  - Bulk build (solver hot path): ir/Interference appends edges in
///    discovery order to a flat list, deduplicates it once -- stably, the
///    first occurrence wins -- and hands it to the edge-list constructor,
///    which lays out the CSR directly.  No per-vertex lists and no bit
///    matrix are ever allocated, so the build has no vertex-count cap.
///  - Incremental build (hand-built graphs, inducedSubgraph): per-vertex
///    adjacency lists plus a dense bit matrix for O(1) duplicate detection
///    in addEdge() (up to kMaxDenseVertices).  compress() flattens the
///    lists into the CSR and releases both the lists and the matrix, so a
///    frozen graph costs O(N + E) bytes whatever its history.
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

/// An undirected graph with per-vertex weights and optional vertex names.
///
/// addEdge() deduplicates edges and rejects self-loops; the edge-list
/// constructor requires a list free of both.  Adjacency is kept in
/// insertion order -- algorithms that need determinism across runs get it
/// because the whole library is deterministic (no pointer ordering
/// anywhere).
class Graph {
public:
  /// Largest vertex count for which the incremental build maintains the
  /// dense adjacency bit matrix.  One row is numVertices() bits, so the
  /// matrix costs ~N^2/8 bytes (2 MiB at the cap); beyond it addEdge and
  /// hasEdge fall back to the list scan.  The edge-list build never
  /// allocates a matrix and has no cap.
  static constexpr unsigned kMaxDenseVertices = 4096;

  Graph() = default;

  /// Creates a graph with \p NumVertices vertices of weight 0.
  explicit Graph(unsigned NumVertices)
      : Adjacency(NumVertices), Weights(NumVertices, 0) {
    if (NumVertices > kMaxDenseVertices)
      MatrixEnabled = false;
    else if (NumVertices > 0) {
      MatrixStride = (NumVertices + 63) / 64;
      Matrix.assign(static_cast<std::size_t>(NumVertices) * MatrixStride, 0);
    }
  }

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

  /// Adds the undirected edge {U, V} unless it already exists.
  /// \returns true if the edge was inserted, false if it was present.
  /// \pre U != V, both are valid vertex ids, and the graph is not
  /// compressed.
  bool addEdge(VertexId U, VertexId V);

  /// Returns true if the undirected edge {U, V} exists.  O(1) while the
  /// dense bit matrix is live (a mutable graph with numVertices() <=
  /// kMaxDenseVertices); otherwise, frozen graphs included, a scan of the
  /// smaller neighbor list.
  bool hasEdge(VertexId U, VertexId V) const {
    assert(U < numVertices() && V < numVertices() && "vertex out of range");
    if (MatrixStride)
      return (Matrix[static_cast<std::size_t>(U) * MatrixStride +
                     (V >> 6)] >>
              (V & 63)) &
             1;
    return hasEdgeScan(U, V);
  }

  unsigned numVertices() const {
    return static_cast<unsigned>(Weights.size());
  }
  size_t numEdges() const { return EdgeCount; }

  /// Freezes the edge set and flattens adjacency into a CSR (offsets +
  /// packed neighbor array) so neighbor walks stream contiguous memory.
  /// Iteration order -- and with it every downstream result -- is
  /// unchanged.  Releases the adjacency lists and the bit matrix.
  /// Idempotent; addVertex/addEdge are no longer allowed.  Called at
  /// problem-construction freeze points (AllocationProblem::
  /// fromChordalGraph / fromGeneralGraph); graphs from the edge-list
  /// constructor are born frozen.
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

  /// Builds the subgraph induced by \p Keep (weights and names carried over).
  /// The result is mutable (not compressed), whatever the source's state.
  /// \param [out] OldToNew if non-null, receives a map of size numVertices()
  ///   with the new id of each kept vertex and ~0u for dropped ones.
  Graph inducedSubgraph(const std::vector<VertexId> &Keep,
                        std::vector<VertexId> *OldToNew = nullptr) const;

  /// Renders the graph in Graphviz DOT syntax (used by the examples).
  /// Vertices in \p Highlight are drawn filled.
  std::string toDot(const std::vector<VertexId> &Highlight = {}) const;

private:
  bool hasEdgeScan(VertexId U, VertexId V) const;
  void setMatrixBit(VertexId U, VertexId V) {
    Matrix[static_cast<std::size_t>(U) * MatrixStride + (V >> 6)] |=
        uint64_t(1) << (V & 63);
  }

  /// Insertion-order adjacency lists; emptied (storage released) by
  /// compress().
  std::vector<std::vector<VertexId>> Adjacency;
  std::vector<Weight> Weights;
  std::vector<std::string> Names;
  size_t EdgeCount = 0;

  /// Dense adjacency bit matrix of the incremental build, row-major with
  /// MatrixStride 64-bit words per row.  Membership only -- iteration
  /// always uses the ordered lists / CSR.  Dropped permanently once
  /// numVertices() exceeds kMaxDenseVertices, and by compress().
  std::vector<uint64_t> Matrix;
  unsigned MatrixStride = 0;
  bool MatrixEnabled = true;

  /// CSR view, valid once Compressed: CsrOffsets has numVertices()+1
  /// entries; vertex V's neighbors are CsrNeighbors[CsrOffsets[V] ..
  /// CsrOffsets[V+1]).
  std::vector<uint32_t> CsrOffsets;
  std::vector<VertexId> CsrNeighbors;
  bool Compressed = false;
};

} // namespace layra

#endif // LAYRA_GRAPH_GRAPH_H
