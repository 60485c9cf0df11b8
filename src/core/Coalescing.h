//===- core/Coalescing.h - Affinities and biased assignment -----*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register coalescing support -- the companion problem the paper's
/// conclusion singles out ("studying the interactions with the register
/// coalescing").  Copy instructions and phi operands induce *affinities*
/// (value pairs that would like the same register); this module extracts
/// them and biases the tree-scan assignment so that affinity-related values
/// share registers when the coloring allows it.  Copies are removed only
/// there, after the spill decision: no pass merges values before
/// allocation, which could break the chordality the layered allocator
/// needs.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_CORE_COALESCING_H
#define LAYRA_CORE_COALESCING_H

#include "core/AllocationProblem.h"
#include "core/Assignment.h"
#include "ir/Program.h"

#include <vector>

namespace layra {

/// A move-related value pair with the frequency-weighted benefit of
/// assigning both to one register (the cost of the copy otherwise).
struct Affinity {
  ValueId A = kNoValue;
  ValueId B = kNoValue;
  Weight Benefit = 0;
};

/// Extracts affinities from \p F: one per Copy instruction (def, src) with
/// benefit = block frequency, and one per phi operand (def, operand) with
/// benefit = predecessor frequency (a phi is a parallel copy on the edge).
/// Pairs that appear multiple times are merged, benefits summed.
std::vector<Affinity> collectAffinities(const Function &F);

/// The tree-scan assignment (assignRegisters is this with no affinities):
/// allocated vertices are colored in reverse PEO order on chordal instances
/// and max-degree-first on general ones.  When several registers are free
/// for a vertex, it prefers the one with the most benefit among its
/// already colored affinity partners (lowest register on a tie), which
/// removes copies without ever adding spills.
Assignment assignRegistersBiased(const AllocationProblem &P,
                                 const std::vector<char> &Allocated,
                                 const std::vector<Affinity> &Affinities);

/// Static cost of the copies that remain after assignment: the summed
/// benefit of affinities whose endpoints are both allocated but received
/// different registers (plus those with a spilled endpoint, which always
/// cost their benefit).  The metric assignRegistersBiased minimizes
/// greedily.
Weight remainingCopyCost(const std::vector<Affinity> &Affinities,
                         const std::vector<char> &Allocated,
                         const std::vector<unsigned> &RegisterOf);

} // namespace layra

#endif // LAYRA_CORE_COALESCING_H
