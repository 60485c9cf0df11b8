//===- graph/Chordal.h - Chordal graph machinery ----------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Perfect elimination orders, chordality testing, maximal cliques and clique
/// trees -- the structural backbone of the paper.  Interference graphs of SSA
/// programs are chordal (Hack et al.; paper §3.2), maximal cliques correspond
/// exactly to sets of variables simultaneously live at some program point,
/// and a PEO makes the maximum weighted stable set (the optimal one-register
/// allocation layer) computable in linear time.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_GRAPH_CHORDAL_H
#define LAYRA_GRAPH_CHORDAL_H

#include "graph/Graph.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace layra {

class SolverWorkspace;

/// A vertex elimination order of a graph, its inverse permutation and each
/// vertex's later neighbors.  Order[I] is the I-th vertex eliminated;
/// Position[V] is V's index in Order.  The neighbors of Order[I] that come
/// after it (its "monotone adjacency set") are laterAt(I), in the graph's
/// neighbor order, packed in CSR form indexed by position; Parent[I] is the
/// earliest of them, or kNoParent.  The lists cost E + 2N + 1 words, and
/// the clique pass and the layered allocator read them instead of
/// rescanning the graph.
struct EliminationOrder {
  static constexpr VertexId kNoParent = ~0u;

  std::vector<VertexId> Order;
  std::vector<unsigned> Position;
  std::vector<uint32_t> LaterStart;
  std::vector<VertexId> Later;
  std::vector<VertexId> Parent;

  /// Later neighbors of the vertex at position \p I.
  NeighborRange laterAt(unsigned I) const {
    assert(I + 1 < LaterStart.size() && "position out of range");
    return {Later.data() + LaterStart[I], Later.data() + LaterStart[I + 1]};
  }

  /// Later neighbors of vertex \p V.
  NeighborRange laterOf(VertexId V) const { return laterAt(Position[V]); }

  /// Builds the inverse permutation of \p Order, a permutation of \p G's
  /// vertices, and the later lists with one scan of \p G.
  static EliminationOrder fromOrder(const Graph &G,
                                    std::vector<VertexId> Order);
};

/// Computes an elimination order via Maximum Cardinality Search.
/// For a chordal graph the *reverse* of the MCS visit order is a perfect
/// elimination order; the returned order is already reversed, i.e. it is a
/// PEO whenever \p G is chordal.  The later lists are recorded during the
/// search: a vertex's already visited neighbors are exactly its later
/// neighbors.  \p WS optionally supplies the bucket scratch
/// (core/SolverWorkspace.h); results are identical either way.
EliminationOrder maximumCardinalitySearch(const Graph &G,
                                          SolverWorkspace *WS = nullptr);

/// Computes an elimination order via lexicographic BFS (Rose-Tarjan-Lueker).
/// As with MCS, the returned order is a PEO whenever \p G is chordal.
EliminationOrder lexBfs(const Graph &G);

/// Returns true if \p Order is a perfect elimination order of \p G: each
/// vertex's later neighbors form a clique.  Linear-time RTL check that
/// scans \p G for the later neighbors instead of reading \p Order's lists.
bool isPerfectEliminationOrder(const Graph &G, const EliminationOrder &Order,
                               SolverWorkspace *WS = nullptr);

/// Returns true if \p G is chordal (every cycle of length >= 4 has a chord).
bool isChordal(const Graph &G);

/// A read-only span of clique indices.  Clique indices and vertex ids share
/// one representation, so this is the neighbor-list view under another
/// name.
using CliqueIndexRange = NeighborRange;

/// The maximal cliques of a chordal graph, plus the inverse index used by
/// the fixed-point layered allocator (paper Algorithm 4), the step-k
/// dynamic program and the clique tree.  Both lists are stored in CSR
/// form -- offsets + one packed array each -- so a cover costs four
/// allocations however many cliques it holds.
class CliqueCover {
public:
  CliqueCover() = default;

  /// Builds the cover of a graph with \p NumVertices vertices whose clique
  /// K is Members[Offsets[K] .. Offsets[K+1]); Offsets starts at 0 and has
  /// one entry more than there are cliques.  Derives cliquesOf().
  CliqueCover(unsigned NumVertices, std::vector<uint32_t> Offsets,
              std::vector<VertexId> Members);

  unsigned numCliques() const {
    return CliqueStart.empty() ? 0
                               : static_cast<unsigned>(CliqueStart.size() - 1);
  }

  /// Members of clique \p K (unordered).
  NeighborRange clique(unsigned K) const {
    assert(K < numCliques() && "clique index out of range");
    return {Members.data() + CliqueStart[K],
            Members.data() + CliqueStart[K + 1]};
  }

  /// Indices of the maximal cliques containing \p V, ascending.
  CliqueIndexRange cliquesOf(VertexId V) const {
    assert(V + 1 < OfStart.size() && "vertex out of range");
    return {OfClique.data() + OfStart[V], OfClique.data() + OfStart[V + 1]};
  }

  /// Size of the largest clique; equals the chromatic number for chordal
  /// graphs and MaxLive for SSA interference graphs.
  unsigned maxCliqueSize() const;

  friend bool operator==(const CliqueCover &A, const CliqueCover &B) {
    return A.CliqueStart == B.CliqueStart && A.Members == B.Members &&
           A.OfStart == B.OfStart && A.OfClique == B.OfClique;
  }
  friend bool operator!=(const CliqueCover &A, const CliqueCover &B) {
    return !(A == B);
  }

private:
  std::vector<uint32_t> CliqueStart;
  std::vector<VertexId> Members;
  std::vector<uint32_t> OfStart;
  std::vector<unsigned> OfClique;
};

/// Enumerates all maximal cliques of chordal \p G given a PEO
/// (Fulkerson-Gross), scanning \p G for the later neighbors.  Runs in
/// O(V + E) time plus output size.  Together with
/// isPerfectEliminationOrder() this is the reference that
/// maximalCliquesIfPeo() must reproduce.
/// \pre \p Peo is a perfect elimination order of \p G.
CliqueCover maximalCliquesChordal(const Graph &G, const EliminationOrder &Peo,
                                  SolverWorkspace *WS = nullptr);

/// isPerfectEliminationOrder() and maximalCliquesChordal() fused into one
/// pass over \p Order's later lists and parents (G is not rescanned): the
/// Rose-Tarjan-Lueker check runs over them, and the cover is emitted from
/// them.  Returns false, leaving \p Out untouched, when \p Order is not a
/// PEO of \p G; otherwise \p Out equals maximalCliquesChordal(G, Order).
bool maximalCliquesIfPeo(const Graph &G, const EliminationOrder &Order,
                         CliqueCover &Out, SolverWorkspace *WS = nullptr);

/// A clique tree of a chordal graph: a tree on the maximal cliques such that
/// for every vertex the cliques containing it induce a subtree.  Built as a
/// maximum-weight spanning tree of the clique intersection graph, which is a
/// classical characterisation of clique trees.
struct CliqueTree {
  /// Parent clique index; Root has parent ~0u.  Indices refer to the
  /// CliqueCover this tree was built from.
  std::vector<unsigned> Parent;
  /// Children lists (redundant with Parent, handy for DP traversals).
  std::vector<std::vector<unsigned>> Children;
  /// Topological order: parents before children, Order[0] is the root.
  std::vector<unsigned> TopoOrder;
  /// Separator[i] = intersection of clique i with its parent (empty for the
  /// root and for cliques in other connected components).
  std::vector<std::vector<VertexId>> Separator;
};

/// Builds a clique tree of \p Cover (one root per connected component of the
/// clique intersection graph; forests are represented with multiple roots).
CliqueTree buildCliqueTree(const Graph &G, const CliqueCover &Cover);

/// Verifies the induced-subtree property of \p Tree w.r.t. \p Cover: for
/// every vertex, the cliques containing it form a connected subtree.
/// Used by tests and asserts.
bool isValidCliqueTree(const Graph &G, const CliqueCover &Cover,
                       const CliqueTree &Tree);

} // namespace layra

#endif // LAYRA_GRAPH_CHORDAL_H
