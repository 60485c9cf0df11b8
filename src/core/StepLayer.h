//===- core/StepLayer.h - Optimal bounded layers (step >= 2) ----*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The step >= 2 layer primitive of the layered-optimal allocator: a
/// maximum-weight vertex set that raises the register pressure of every
/// program point (maximal clique) by at most `Bound`.  The paper (§4) notes
/// this is solvable by dynamic programming [Bouchez et al., LCTES'07]; we
/// implement the DP over the clique tree, whose per-node state is a <=Bound
/// subset of the clique -- polynomial for every fixed Bound, which is the
/// pseudo-polynomial-in-registers property the layered approach exploits.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_CORE_STEPLAYER_H
#define LAYRA_CORE_STEPLAYER_H

#include "core/AllocationProblem.h"

#include <vector>

namespace layra {

class SolverWorkspace;

/// Maximum step the *layered allocator* uses per layer (the state space
/// grows as |clique|^step).  The DP itself accepts any bound whose state
/// space the caller has checked with estimateBoundedLayerStates().
inline constexpr unsigned kMaxLayerStep = 3;

/// Estimated total DP table size (number of subset states summed over all
/// clique-tree nodes) for a run of optimalBoundedLayer with \p Bound on the
/// unmasked vertices.  Saturates at 1e18, and reads 1e18 whenever a clique
/// has more than 64 unmasked members, which the DP cannot hold.  The exact
/// solver uses this to decide between the DP and branch-and-bound.
double estimateBoundedLayerStates(const AllocationProblem &P,
                                  const std::vector<char> &Mask,
                                  unsigned Bound);

/// Computes a maximum-weight subset S of the unmasked vertices such that
/// |S intersect K| <= Bound for every maximal clique K of the chordal
/// instance \p P.
///
/// \param P chordal allocation problem (uses G, Cliques and the clique tree
///        derived from them; its budgets are ignored).
/// \param Mask vertex filter: only vertices V with Mask[V] != 0 participate.
/// \param Weights per-vertex objective weights (may be biased).
/// \param Bound pressure increment per clique, in [1, kMaxLayerStep].
/// \param WS optional scratch workspace: the per-node DP tables (bags,
///        subset states, values, projection indices) are checked out of it,
///        so repeated layers over one problem reuse the same arenas.
/// \param Tree optional precomputed clique tree of (P.graph(), P.Cliques); when
///        null, one is built per call.  The layered allocator builds it
///        once per run and shares it across layers.
///
/// For Bound == 1 this equals the maximum weighted stable set; callers use
/// Frank's algorithm for that case instead (it is linear), but the DP accepts
/// it, which the tests exploit for cross-validation.
std::vector<VertexId> optimalBoundedLayer(const AllocationProblem &P,
                                          const std::vector<char> &Mask,
                                          const std::vector<Weight> &Weights,
                                          unsigned Bound,
                                          SolverWorkspace *WS = nullptr,
                                          const CliqueTree *Tree = nullptr);

} // namespace layra

#endif // LAYRA_CORE_STEPLAYER_H
