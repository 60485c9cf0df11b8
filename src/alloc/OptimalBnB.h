//===- alloc/OptimalBnB.h - Exact branch-and-bound solver -------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "Optimal" baseline of the paper's evaluation.  The paper solves an
/// ILP (Diouf et al. [11]); we solve the *same model* exactly with a
/// dedicated branch-and-bound:
///
///     maximise   sum w(v) x_v
///     subject to sum_{v in K} x_v <= R   for every point constraint K
///                x binary
///
/// The solver preprocesses aggressively (constraints of size <= R never
/// bind; vertices outside every binding constraint are allocated for free;
/// the rest decomposes into independent components), warm-starts from the
/// BFPL / layered-heuristic solutions -- whose near-optimality (the paper's
/// very point) makes the proof search shallow -- and propagates saturated
/// constraints during the DFS.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_ALLOC_OPTIMALBNB_H
#define LAYRA_ALLOC_OPTIMALBNB_H

#include "alloc/Allocator.h"

#include <cstdint>

namespace layra {

/// Exact solver with a node budget.
class OptimalBnBAllocator : public Allocator {
public:
  explicit OptimalBnBAllocator(uint64_t NodeLimit = 50'000'000)
      : NodeLimit(NodeLimit) {}

  using Allocator::allocate;
  /// Solves to proven optimality unless the node budget is exhausted, in
  /// which case the best incumbent is returned with Proven == false.  The
  /// warm-start heuristics, the exact clique-tree DP and the ILP
  /// relaxations all reuse \p WS's arenas.
  AllocationResult allocate(const AllocationProblem &P,
                            SolverWorkspace *WS) override;
  const char *name() const override { return "optimal"; }

private:
  uint64_t NodeLimit;
};

} // namespace layra

#endif // LAYRA_ALLOC_OPTIMALBNB_H
