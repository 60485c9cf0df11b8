//===- ir/Interference.h - Interference graph construction ------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the interference graph and the program-point live sets of a
/// function.  For strict-SSA functions the graph is chordal and its maximal
/// cliques are exactly the maximal live sets (paper §3.2); for non-SSA
/// functions the same construction yields the general (Chaitin-style) graph
/// the paper's JikesRVM evaluation uses.  Spill costs become vertex weights.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_IR_INTERFERENCE_H
#define LAYRA_IR_INTERFERENCE_H

#include "graph/Graph.h"
#include "ir/Liveness.h"
#include "ir/Program.h"
#include "ir/Target.h"

#include <vector>

namespace layra {

class SolverWorkspace;

/// Interference graph plus the program-point live sets.  Vertex V of the
/// graph corresponds 1:1 to ValueId V of the function.  Pressure (the
/// paper's MaxLive) is Liveness::maxLive, or AllocationProblem::maxLive
/// once a problem is built.
struct InterferenceInfo {
  Graph G;
  /// Deduplicated live sets, one per distinct program point (sorted vertex
  /// lists).  For SSA functions every maximal clique of G appears among
  /// these; they double as the ILP packing constraints on general graphs.
  /// On multi-class functions each set may mix classes -- consumers that
  /// build per-class budgets split them (core/ProblemBuilder.cpp).
  std::vector<std::vector<VertexId>> PointLiveSets;
};

/// Estimated spill-everywhere cost of each value: for every definition,
/// StoreCost x block frequency; for every use, LoadCost x block frequency
/// (phi operands are charged to the predecessor they flow from; phi defs to
/// the block holding the phi).
std::vector<Weight> computeSpillCosts(const Function &F,
                                      const TargetDesc &Target);

/// Builds the interference graph of \p F with \p Costs as vertex weights;
/// vertex V is value V.  The backward walk keeps each block's live set as
/// a sorted list, seeded from LiveOut, so a def meets the values live
/// after it in ascending id order, and appends edges in discovery order to
/// a flat list; one stable dedup (the first occurrence of each edge wins)
/// and Graph's edge-list constructor then lay out the CSR graph, so each
/// vertex's neighbors come in the order their edges were first discovered.
///
/// \p WS optionally supplies the walk's scratch and the edge list.
/// \p CollectPointSets controls whether PointLiveSets is filled: chordal
/// (SSA) consumers derive the constraints from the maximal cliques instead
/// and skip the per-point sort/dedup entirely.  \p Discovered, when
/// non-null, receives the edge list as discovered, repeats included (the
/// input of the reference construction in fuzz/BuildReference.h).
InterferenceInfo
buildInterference(const Function &F, const Liveness &Live,
                  const std::vector<Weight> &Costs,
                  SolverWorkspace *WS = nullptr, bool CollectPointSets = true,
                  std::vector<GraphEdge> *Discovered = nullptr);

} // namespace layra

#endif // LAYRA_IR_INTERFERENCE_H
