//===- fuzz/BuildReference.h - Reference problem construction ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental problem construction, kept as the reference the
/// allocation-free build must reproduce byte for byte.  The reference
/// graph replays the interference walk's discovered edges through
/// Graph::addEdge (repeats dropped on insertion) and compress(); the
/// reference chordal structure runs maximumCardinalitySearch,
/// isPerfectEliminationOrder and maximalCliquesChordal as separate passes
/// over it.  The production path -- stable edge dedup, the edge-list Graph
/// constructor and the fused maximalCliquesIfPeo -- must agree on weights,
/// names, every neighbor list in order, the PEO, the clique lists and
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

namespace layra {

/// The interference graph of \p F built the incremental way: one
/// Graph::addEdge per discovered edge, in discovery order, then
/// compress().  \p Repeats, when non-null, receives the number of
/// rediscovered edges addEdge dropped.
Graph referenceInterferenceGraph(const Function &F, const TargetDesc &Target,
                                 size_t *Repeats = nullptr);

/// Compares \p P with the reference path over \p Reference: vertex
/// weights and names, every neighbor list in order, and for a chordal
/// \p P also the PEO, the PEO certificate and the clique cover.  Returns
/// an empty string when they agree, else the first difference.
std::string diffAgainstReference(const AllocationProblem &P,
                                 const Graph &Reference);

} // namespace layra

#endif // LAYRA_FUZZ_BUILDREFERENCE_H
