//===- core/Assignment.h - Register assignment (coloring) ------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The assignment half of decoupled register allocation: once the allocation
/// has chosen which variables stay in registers, a greedy coloring along the
/// (reverse) PEO -- the "tree scan" of paper §1 -- assigns concrete registers
/// to a feasible allocation of a chordal instance without any further spill.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_CORE_ASSIGNMENT_H
#define LAYRA_CORE_ASSIGNMENT_H

#include "core/AllocationProblem.h"

#include <vector>

namespace layra {

/// Register assignment for the allocated vertices.  A concrete register is
/// a (class, index) pair: RegisterOf[V] is the index *within* class
/// ClassOf[V]'s file (r3 of the GPR file and s3 of the VFP file are
/// different machine registers).  Single-class instances have ClassOf all
/// zero and the historical flat-index reading.
struct Assignment {
  /// Register index per vertex (within the vertex's class); kNoRegister
  /// for spilled vertices.
  std::vector<unsigned> RegisterOf;
  /// Register class per vertex (copied from the problem).
  std::vector<RegClassId> ClassOf;
  /// Max over classes of distinct register indices used (<= the class
  /// budget on success).
  unsigned RegistersUsed = 0;
  /// True when every allocated vertex received an index below its class's
  /// budget.
  bool Success = false;

  static constexpr unsigned kNoRegister = ~0u;
};

/// Colors the subgraph induced by \p Allocated: the tree scan of
/// assignRegistersBiased (core/Coalescing.h) with no affinities, so every
/// vertex takes the lowest register its colored neighbors leave free.
///
/// For chordal instances a feasible allocation (<= R per maximal clique)
/// always succeeds: the induced subgraph is chordal with clique number <= R,
/// and the greedy reverse-PEO scan is an optimal coloring.  For general
/// instances the greedy scan may exceed R (Success reports it) -- the paper
/// likewise only guarantees assignment on SSA programs.
Assignment assignRegisters(const AllocationProblem &P,
                           const std::vector<char> &Allocated);

} // namespace layra

#endif // LAYRA_CORE_ASSIGNMENT_H
