//===- core/AllocationProblem.h - Spill-everywhere instances ----*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoupled spill-everywhere allocation problem (paper §2): given an
/// interference graph with spill-cost weights and per-class register
/// budgets, choose the maximum-weight set of variables to *keep in
/// registers* such that no more than the class budget of them are
/// simultaneously live anywhere.  "Simultaneously live" is captured by
/// pressure constraints, all held in one CSR CliqueCover: the maximal
/// cliques for chordal (SSA) instances, the per-program-point live sets for
/// general instances.  A constraint stores only its members; its class is
/// the class of its first member and its budget that class's entry of
/// Budgets, so re-budgeting swaps one small vector.  Values of different
/// register classes never share a constraint (they cannot compete for a
/// register), which is what makes the multi-class problem decompose
/// exactly into independent per-class subproblems (Bouchez et al.: the
/// structure is per pressure constraint).
///
/// Single-class instances -- everything the paper evaluates -- are the
/// special case Budgets == {R} with every constraint owned by class 0; all
/// solvers treat that case exactly as the historical scalar formulation.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_CORE_ALLOCATIONPROBLEM_H
#define LAYRA_CORE_ALLOCATIONPROBLEM_H

#include "graph/Chordal.h"
#include "graph/Graph.h"
#include "ir/LiveIntervals.h"
#include "ir/Target.h"

#include <memory>
#include <optional>
#include <vector>

namespace layra {

class SolverWorkspace;

/// One spill-everywhere instance.
struct AllocationProblem {
  /// Interference graph; vertex weights are spill costs.  Shared and
  /// immutable: withBudgets() re-budgets an instance for a register sweep
  /// without copying the graph (the constraint structure and the graph are
  /// budget-independent).
  std::shared_ptr<const Graph> G;
  /// Register budget per class; Budgets[0] is the default class.  Size 1
  /// for single-class instances.
  std::vector<unsigned> Budgets;
  /// Register class of each vertex (sized numVertices; all 0 on
  /// single-class instances).
  std::vector<RegClassId> ClassOf;
  /// True when G is chordal and the constraints are its maximal cliques.
  bool Chordal = false;
  /// Perfect elimination order with each vertex's later neighbors
  /// (chordal instances only); core/Layered reads the lists.
  EliminationOrder Peo;
  /// The pressure constraints: constraint K keeps at most
  /// constraintBudget(K) of Cliques.clique(K) in registers.  Every vertex
  /// appears in at least one.  On chordal instances these are the maximal
  /// cliques of G, and cliquesOf() serves the fixed-point allocator; on
  /// general instances they are the point live sets.
  CliqueCover Cliques;
  /// Flattened live intervals (instances derived from a function); linear
  /// scan allocators require these.  The allocation pipeline builds them
  /// only for allocators that read them (Allocator::requiresIntervals).
  std::optional<LiveIntervalTable> Intervals;

  const Graph &graph() const { return *G; }

  unsigned numClasses() const {
    return static_cast<unsigned>(Budgets.size());
  }
  bool multiClass() const { return Budgets.size() > 1; }

  /// Register class of vertex \p V.
  RegClassId classOf(VertexId V) const {
    return V < ClassOf.size() ? ClassOf[V] : 0;
  }

  /// Budget of class \p C.
  unsigned budgetOf(RegClassId C) const {
    assert(C < Budgets.size() && "class id out of range");
    return Budgets[C];
  }

  /// Register class of constraint \p K: its first member's (a constraint
  /// never spans classes), 0 for an empty constraint.
  RegClassId constraintClass(unsigned K) const {
    NeighborRange Members = Cliques.clique(K);
    return Members.empty() ? 0 : classOf(Members[0]);
  }

  /// Budget of constraint \p K: the budget of its class.
  unsigned constraintBudget(unsigned K) const {
    return budgetOf(constraintClass(K));
  }

  /// The single budget of a single-class instance.  Solvers built around
  /// one uniform register file (the layered family, linear scan, graph
  /// coloring) call this; multi-class instances reach them only through
  /// the per-class decomposition in Allocator::allocateProblem.
  unsigned uniformBudget() const {
    assert(!multiClass() && "uniform-budget solver fed a multi-class "
                            "instance; route through allocateProblem");
    return Budgets.empty() ? 0 : Budgets[0];
  }

  /// Builds a chordal instance from a chordal graph: computes the PEO
  /// (MCS), checks it and extracts the maximal cliques in one pass
  /// (maximalCliquesIfPeo).  Aborts if \p G is not chordal.  \p Budgets
  /// holds one budget per class ({R} for a single-class instance) and
  /// \p ClassOf tags each vertex (empty: all class 0).  Cross-class
  /// vertices must not be adjacent in \p G (interference construction
  /// guarantees it); every maximal clique then lies within one class and
  /// becomes that class's constraint.  \p WS optionally supplies the
  /// chordal-machinery scratch; the built problem never aliases workspace
  /// memory.
  static AllocationProblem
  fromChordalGraph(Graph G, std::vector<unsigned> Budgets,
                   std::vector<RegClassId> ClassOf = {},
                   SolverWorkspace *WS = nullptr);

  /// Builds a general instance: \p PointLiveSets become the constraints
  /// (vertices missing from every set get a singleton constraint so the
  /// problem covers them).  \p Budgets and \p ClassOf are as in
  /// fromChordalGraph; each point live set is split per class before it
  /// becomes constraints (values of different files never pressure each
  /// other), with per-class deduplication.
  static AllocationProblem
  fromGeneralGraph(Graph G, std::vector<unsigned> Budgets,
                   std::vector<RegClassId> ClassOf,
                   std::vector<std::vector<VertexId>> PointLiveSets);

  /// MaxLive of the instance: the size of the largest constraint (largest
  /// per-class pressure on multi-class instances).
  unsigned maxLive() const { return Cliques.maxCliqueSize(); }

  /// True when every constraint fits its budget -- the "no spilling
  /// needed" test, per class.
  bool fitsBudgets() const;

  /// Returns a copy of this problem with different per-class budgets.
  /// The graph is *shared*, not copied, and the constraints carry no
  /// budget of their own, so a register sweep re-budgets one immutable
  /// instance by swapping Budgets.
  AllocationProblem withBudgets(std::vector<unsigned> NewBudgets) const;

  /// Extracts the independent single-class subproblem of class \p C.
  /// \p ToGlobal receives the local-vertex -> global-vertex map.  The
  /// subproblem owns its graph and intervals.  Classes with no vertices
  /// yield an empty problem (0 vertices).
  AllocationProblem projectClass(RegClassId C,
                                 std::vector<VertexId> &ToGlobal,
                                 SolverWorkspace *WS = nullptr) const;
};

/// Outcome of an allocator run.
struct AllocationResult {
  /// Per-vertex flag: kept in a register?
  std::vector<char> Allocated;
  /// Sum of weights of allocated vertices.
  Weight AllocatedWeight = 0;
  /// Sum of weights of spilled vertices (the paper's "allocation cost").
  Weight SpillCost = 0;
  /// For exact solvers: true when optimality was proven (search completed
  /// within its node budget).  Heuristics leave it false.
  bool Proven = false;

  /// Collects the spilled vertex ids.
  std::vector<VertexId> spilled() const;
  /// Collects the allocated vertex ids.
  std::vector<VertexId> allocated() const;

  /// Builds a result from an allocated-vertex list, computing both weights
  /// against \p G.
  static AllocationResult fromAllocatedSet(const Graph &G,
                                           const std::vector<VertexId> &Set);
  /// Builds a result from per-vertex flags.
  static AllocationResult fromFlags(const Graph &G, std::vector<char> Flags);
};

/// Checks feasibility: every constraint keeps at most its budget of
/// allocated vertices.  For chordal single-class instances this is exactly
/// R-colorability of the induced subgraph.
bool isFeasibleAllocation(const AllocationProblem &P,
                          const std::vector<char> &Allocated);

} // namespace layra

#endif // LAYRA_CORE_ALLOCATIONPROBLEM_H
