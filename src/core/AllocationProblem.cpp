//===- core/AllocationProblem.cpp - Spill-everywhere instances -------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/AllocationProblem.h"

#include "core/SolverWorkspace.h"
#include "support/Compiler.h"

#include <algorithm>
#include <unordered_set>

using namespace layra;

AllocationProblem AllocationProblem::fromChordalGraph(Graph G,
                                                      unsigned NumRegisters,
                                                      SolverWorkspace *WS) {
  return fromChordalGraph(std::move(G), std::vector<unsigned>{NumRegisters},
                          {}, WS);
}

AllocationProblem
AllocationProblem::fromChordalGraph(Graph G, std::vector<unsigned> Budgets,
                                    std::vector<RegClassId> ClassOf,
                                    SolverWorkspace *WS) {
  assert(!Budgets.empty() && "at least one register class required");
  // Freeze point: the edge set is complete, so flatten adjacency into the
  // CSR view before the MCS/clique machinery walks it (a no-op for graphs
  // built from an edge list, which are born frozen).
  G.compress();
  AllocationProblem P;
  P.Budgets = std::move(Budgets);
  P.ClassOf = std::move(ClassOf);
  P.ClassOf.resize(G.numVertices(), 0);
  // MCS fixes the PEO, and through its tie-breaking every clique index and
  // spill decision downstream.  The RTL check is the only guard that the
  // order is a PEO, so it runs in every build, fused with the clique
  // extraction into one pass over the later neighbors.
  P.Peo = maximumCardinalitySearch(G, WS);
  if (!maximalCliquesIfPeo(G, P.Peo, P.Cliques, WS))
    layraFatalError("fromChordalGraph called with a non-chordal graph");
  P.Constraints.reserve(P.Cliques.numCliques());
  for (unsigned K = 0; K < P.Cliques.numCliques(); ++K) {
    NeighborRange Clique = P.Cliques.clique(K);
    PressureConstraint C;
    C.Members.assign(Clique.begin(), Clique.end());
    // Cross-class vertices are never adjacent, so a clique lies wholly in
    // one class: its first member names it.
    C.Class = Clique.empty() ? 0 : P.ClassOf[Clique[0]];
    assert(C.Class < P.Budgets.size() && "vertex class without a budget");
#ifndef NDEBUG
    for (VertexId V : Clique)
      assert(P.ClassOf[V] == C.Class &&
             "clique spans register classes; interference construction "
             "must not add cross-class edges");
#endif
    C.Budget = P.Budgets[C.Class];
    P.Constraints.push_back(std::move(C));
  }
  P.Chordal = true;
  P.G = std::make_shared<Graph>(std::move(G));
  return P;
}

AllocationProblem AllocationProblem::fromGeneralGraph(
    Graph G, unsigned NumRegisters,
    std::vector<std::vector<VertexId>> PointLiveSets) {
  return fromGeneralGraph(std::move(G), std::vector<unsigned>{NumRegisters},
                          {}, std::move(PointLiveSets));
}

AllocationProblem AllocationProblem::fromGeneralGraph(
    Graph G, std::vector<unsigned> Budgets, std::vector<RegClassId> ClassOf,
    std::vector<std::vector<VertexId>> PointLiveSets) {
  assert(!Budgets.empty() && "at least one register class required");
  // Freeze point (see fromChordalGraph).
  G.compress();
  AllocationProblem P;
  P.Budgets = std::move(Budgets);
  P.ClassOf = std::move(ClassOf);
  P.ClassOf.resize(G.numVertices(), 0);
  P.Chordal = false;

  if (!P.multiClass()) {
    for (std::vector<VertexId> &Set : PointLiveSets) {
      PressureConstraint C;
      C.Members = std::move(Set);
      C.Budget = P.Budgets[0];
      P.Constraints.push_back(std::move(C));
    }
  } else {
    // Split each point set per class -- values of different files never
    // pressure each other -- and deduplicate the per-class pieces (two
    // mixed points can share one class's slice).
    struct SliceHash {
      size_t operator()(const std::vector<VertexId> &Set) const {
        uint64_t H = 0x9e3779b97f4a7c15ULL;
        for (VertexId V : Set)
          H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
        return static_cast<size_t>(H);
      }
    };
    std::unordered_set<std::vector<VertexId>, SliceHash> Seen;
    for (const std::vector<VertexId> &Set : PointLiveSets) {
      for (RegClassId Class = 0; Class < P.Budgets.size(); ++Class) {
        std::vector<VertexId> Slice;
        for (VertexId V : Set)
          if (P.ClassOf[V] == Class)
            Slice.push_back(V);
        if (Slice.empty() || !Seen.insert(Slice).second)
          continue;
        PressureConstraint C;
        C.Members = std::move(Slice);
        C.Class = Class;
        C.Budget = P.Budgets[Class];
        P.Constraints.push_back(std::move(C));
      }
    }
  }

  // Give uncovered vertices a singleton constraint so that "appears in some
  // constraint" holds for every vertex (solvers rely on it).
  std::vector<char> Covered(G.numVertices(), 0);
  for (const PressureConstraint &C : P.Constraints)
    for (VertexId V : C.Members) {
      assert(V < G.numVertices() && "constraint mentions unknown vertex");
      Covered[V] = 1;
    }
  for (VertexId V = 0; V < G.numVertices(); ++V)
    if (!Covered[V]) {
      PressureConstraint C;
      C.Members = {V};
      C.Class = P.ClassOf[V];
      assert(C.Class < P.Budgets.size() && "vertex class without a budget");
      C.Budget = P.Budgets[C.Class];
      P.Constraints.push_back(std::move(C));
    }

  P.G = std::make_shared<Graph>(std::move(G));
  return P;
}

unsigned AllocationProblem::maxLive() const {
  size_t Max = 0;
  for (const PressureConstraint &C : Constraints)
    Max = std::max(Max, C.Members.size());
  return static_cast<unsigned>(Max);
}

bool AllocationProblem::fitsBudgets() const {
  for (const PressureConstraint &C : Constraints)
    if (C.Members.size() > C.Budget)
      return false;
  return true;
}

AllocationProblem
AllocationProblem::withBudgets(std::vector<unsigned> NewBudgets) const {
  assert(NewBudgets.size() == Budgets.size() &&
         "withBudgets must keep the class structure");
  AllocationProblem Copy = *this; // Graph is shared, not copied.
  Copy.Budgets = std::move(NewBudgets);
  for (PressureConstraint &C : Copy.Constraints)
    C.Budget = Copy.Budgets[C.Class];
  return Copy;
}

AllocationProblem
AllocationProblem::projectClass(RegClassId Class,
                                std::vector<VertexId> &ToGlobal,
                                SolverWorkspace *WS) const {
  assert(Class < Budgets.size() && "class id out of range");
  ToGlobal.clear();
  for (VertexId V = 0; V < graph().numVertices(); ++V)
    if (classOf(V) == Class)
      ToGlobal.push_back(V);

  std::vector<VertexId> LocalOf;
  Graph Sub = graph().inducedSubgraph(ToGlobal, &LocalOf);

  AllocationProblem P;
  if (Chordal) {
    // An induced subgraph of a chordal graph is chordal; its maximal
    // cliques are exactly this class's constraints (cliques never span
    // classes), so the standard construction rebuilds them.
    P = fromChordalGraph(std::move(Sub), budgetOf(Class), WS);
  } else {
    std::vector<std::vector<VertexId>> Sets;
    for (const PressureConstraint &C : Constraints) {
      if (C.Class != Class)
        continue;
      std::vector<VertexId> Local;
      Local.reserve(C.Members.size());
      for (VertexId V : C.Members)
        Local.push_back(LocalOf[V]);
      Sets.push_back(std::move(Local));
    }
    P = fromGeneralGraph(std::move(Sub), budgetOf(Class), std::move(Sets));
  }

  if (Intervals) {
    LiveIntervalTable Table;
    Table.BlockStart = Intervals->BlockStart;
    Table.NumPoints = Intervals->NumPoints;
    for (const LiveInterval &I : Intervals->Intervals) {
      if (I.V == kNoValue || classOf(I.V) != Class)
        continue;
      LiveInterval Local = I;
      Local.V = LocalOf[I.V];
      Table.Intervals.push_back(Local);
    }
    P.Intervals = std::move(Table);
  }
  return P;
}

std::vector<VertexId> AllocationResult::spilled() const {
  std::vector<VertexId> Out;
  for (VertexId V = 0; V < Allocated.size(); ++V)
    if (!Allocated[V])
      Out.push_back(V);
  return Out;
}

std::vector<VertexId> AllocationResult::allocated() const {
  std::vector<VertexId> Out;
  for (VertexId V = 0; V < Allocated.size(); ++V)
    if (Allocated[V])
      Out.push_back(V);
  return Out;
}

AllocationResult
AllocationResult::fromAllocatedSet(const Graph &G,
                                   const std::vector<VertexId> &Set) {
  std::vector<char> Flags(G.numVertices(), 0);
  for (VertexId V : Set)
    Flags[V] = 1;
  return fromFlags(G, std::move(Flags));
}

AllocationResult AllocationResult::fromFlags(const Graph &G,
                                             std::vector<char> Flags) {
  assert(Flags.size() == G.numVertices() && "one flag per vertex required");
  AllocationResult R;
  for (VertexId V = 0; V < G.numVertices(); ++V)
    (Flags[V] ? R.AllocatedWeight : R.SpillCost) += G.weight(V);
  R.Allocated = std::move(Flags);
  return R;
}

bool layra::isFeasibleAllocation(const AllocationProblem &P,
                                 const std::vector<char> &Allocated) {
  assert(Allocated.size() == P.graph().numVertices() &&
         "flag vector size mismatch");
  for (const PressureConstraint &C : P.Constraints) {
    unsigned Kept = 0;
    for (VertexId V : C.Members)
      Kept += Allocated[V] ? 1 : 0;
    if (Kept > C.Budget)
      return false;
  }
  return true;
}
