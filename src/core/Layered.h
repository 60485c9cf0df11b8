//===- core/Layered.h - Layered-optimal allocation (the paper) --*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layered-optimal spilling heuristic of Diouf, Cohen & Rastello (CGO
/// 2013), for chordal (SSA) instances.  Instead of incrementally *spilling*
/// variables, the allocator incrementally *allocates* optimal layers: each
/// layer is an optimal allocation for `step` registers over the not-yet-
/// allocated variables -- a maximum weighted stable set when step == 1
/// (Frank's algorithm, paper Algorithm 1), the clique-tree DP otherwise.
///
/// Variants (paper §4/§6 names):
///  - NL    plain Algorithm 2;
///  - BL    biased weights w'(v) = w(v)*|V| + |adj(v)| break stable-set ties
///          toward removing more interference (§4.1);
///  - FPL   after the R layers, keep allocating vertices whose maximal
///          cliques still have spare registers, to a fixed point
///          (Algorithms 3 and 4, §4.2);
///  - BFPL  both.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_CORE_LAYERED_H
#define LAYRA_CORE_LAYERED_H

#include "core/AllocationProblem.h"

namespace layra {

class SolverWorkspace;

/// Configuration of the layered-optimal allocator.
struct LayeredOptions {
  /// Bias weights by interference degree (the paper's "B").
  bool Biased = false;
  /// Iterate to a fixed point after the R layers (the paper's "FP").
  bool FixedPoint = false;
  /// Registers allocated per layer, in [1, kMaxLayerStep]; the paper
  /// evaluates step == 1.
  unsigned Step = 1;

  /// The four named variants of the paper.
  static LayeredOptions nl() { return {false, false, 1}; }
  static LayeredOptions bl() { return {true, false, 1}; }
  static LayeredOptions fpl() { return {false, true, 1}; }
  static LayeredOptions bfpl() { return {true, true, 1}; }
};

/// Runs the layered-optimal allocator on a chordal instance.
/// The result is always feasible: at most R = P.uniformBudget() allocated
/// vertices in every maximal clique, hence the allocated set is
/// R-colorable.
/// Complexity with step == 1: O(|V|) plus the number of cliques once per
/// run (the later neighbors come with the problem's PEO), then, for each
/// of the R layers and each fixed-point iteration, the remaining
/// candidates and their edges (at most O(|V| + |E|) per layer).
///
/// \p WS optionally supplies the per-layer scratch (candidate masks, layer
/// weights, Frank's-algorithm state, the step DP tables); each layer then
/// reuses the previous layer's buffers instead of reallocating them.
/// Results are bit-identical with and without a workspace.
AllocationResult layeredAllocate(const AllocationProblem &P,
                                 const LayeredOptions &Options = {},
                                 SolverWorkspace *WS = nullptr);

} // namespace layra

#endif // LAYRA_CORE_LAYERED_H
