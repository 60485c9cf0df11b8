//===- fuzz/BuildReference.h - Reference problem construction ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental problem construction, kept as the reference the CSR
/// build must reproduce byte for byte.  The reference graph replays the
/// interference walk's discovered edges into per-vertex neighbor lists of
/// its own, dropping a repeat by scanning the smaller of the two lists, so
/// it shares no fill code with Graph's edge-list constructor.  The
/// production path -- stable edge dedup, the edge-list Graph constructor
/// and the fused maximalCliquesIfPeo -- must agree with it on weights and
/// every neighbor list in order; over the graph so verified, the
/// reference passes maximumCardinalitySearch, isPerfectEliminationOrder
/// and maximalCliquesChordal must reproduce the PEO, the clique lists and
/// cliquesOf().  The `build-vs-reference` fuzz oracle and
/// tests/core/BuildReferenceTest.cpp check it.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_FUZZ_BUILDREFERENCE_H
#define LAYRA_FUZZ_BUILDREFERENCE_H

#include "core/AllocationProblem.h"
#include "ir/Program.h"
#include "ir/Target.h"

#include <cstddef>
#include <string>
#include <vector>

namespace layra {

/// An interference graph as per-vertex lists: vertex V's neighbors in the
/// order their edges were first discovered.
struct ReferenceGraph {
  std::vector<Weight> Weights;
  std::vector<std::vector<VertexId>> Neighbors;
  size_t NumEdges = 0;
};

/// The interference graph of \p F built the incremental way: each
/// discovered edge, in discovery order, is appended to both endpoints'
/// lists unless the smaller list already holds it.  \p Repeats, when
/// non-null, receives the number of rediscovered edges dropped.
ReferenceGraph referenceInterferenceGraph(const Function &F,
                                          const TargetDesc &Target,
                                          size_t *Repeats = nullptr);

/// Compares \p P with the reference path over \p Reference: vertex
/// weights, every neighbor list in order, and for a chordal \p P also the
/// PEO, the PEO certificate and the clique cover.  Returns an empty string
/// when they agree, else the first difference.
std::string diffAgainstReference(const AllocationProblem &P,
                                 const ReferenceGraph &Reference);

} // namespace layra

#endif // LAYRA_FUZZ_BUILDREFERENCE_H
