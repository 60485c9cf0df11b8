//===- fuzz/BuildReference.h - Reference problem construction ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The problem construction the production build must reproduce byte for
/// byte, computed with code of its own: the dense liveness dataflow with
/// one bit vector per block and summary, the per-instruction bit-vector
/// walk over it, and an incremental graph that appends each discovered
/// edge to per-vertex neighbor lists, dropping a repeat by scanning the
/// smaller of the two lists.  The production path -- flat liveness
/// summaries, the sorted-live-list walk, stable edge dedup, the edge-list
/// Graph constructor, MCS's later lists and the fused maximalCliquesIfPeo
/// -- must agree with it on every block's live-in and live-out sets, the
/// discovered edge sequence, weights and every neighbor list in order.
/// Over the graph so verified, the PEO's later lists and parents must
/// equal a scan of the graph, and the reference passes
/// maximumCardinalitySearch, isPerfectEliminationOrder and
/// maximalCliquesChordal must reproduce the PEO, the clique lists and
/// cliquesOf().  The `build-vs-reference` fuzz oracle and
/// tests/core/BuildReferenceTest.cpp check it.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_FUZZ_BUILDREFERENCE_H
#define LAYRA_FUZZ_BUILDREFERENCE_H

#include "core/AllocationProblem.h"
#include "ir/Program.h"
#include "ir/Target.h"
#include "support/BitVector.h"

#include <cstddef>
#include <string>
#include <vector>

namespace layra {

/// A function's problem built the reference way: per-block liveness, the
/// walk's discovered edges, and the interference graph as per-vertex
/// lists, vertex V's neighbors in the order their edges were first
/// discovered.
struct ReferenceGraph {
  std::vector<BitVector> LiveIn;
  std::vector<BitVector> LiveOut;
  /// Every edge the walk discovered, in order, repeats included.
  std::vector<GraphEdge> Discovered;
  std::vector<Weight> Weights;
  std::vector<std::vector<VertexId>> Neighbors;
  size_t NumEdges = 0;
};

/// Builds \p F's problem the reference way.  Each discovered edge, in
/// discovery order, is appended to both endpoints' lists unless the
/// smaller list already holds it.  \p Repeats, when non-null, receives the
/// number of rediscovered edges dropped.
ReferenceGraph referenceInterferenceGraph(const Function &F,
                                          const TargetDesc &Target,
                                          size_t *Repeats = nullptr);

/// Compares the production build of \p F with \p Reference: ir/Liveness
/// on every block, ir/Interference's discovered edge sequence, and for the
/// problem \p P built from \p F the vertex weights, every neighbor list in
/// order, and for a chordal \p P also the PEO, its later lists and
/// parents, the PEO certificate and the clique cover.  Returns an empty
/// string when they agree, else the first difference.
std::string diffAgainstReference(const Function &F, const AllocationProblem &P,
                                 const ReferenceGraph &Reference);

} // namespace layra

#endif // LAYRA_FUZZ_BUILDREFERENCE_H
