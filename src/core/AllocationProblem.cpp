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

AllocationProblem
AllocationProblem::fromChordalGraph(Graph G, std::vector<unsigned> Budgets,
                                    std::vector<RegClassId> ClassOf,
                                    SolverWorkspace *WS) {
  assert(!Budgets.empty() && "at least one register class required");
  AllocationProblem P;
  P.Budgets = std::move(Budgets);
  P.ClassOf = std::move(ClassOf);
  P.ClassOf.resize(G.numVertices(), 0);
  // MCS fixes the PEO, and through its tie-breaking every clique index and
  // spill decision downstream; it also records each vertex's later
  // neighbors.  The RTL check is the only guard that the order is a PEO,
  // so it runs in every build, fused with the clique extraction into one
  // pass over those lists.
  P.Peo = maximumCardinalitySearch(G, WS);
  if (!maximalCliquesIfPeo(G, P.Peo, P.Cliques, WS))
    layraFatalError("fromChordalGraph called with a non-chordal graph");
#ifndef NDEBUG
  // Cross-class vertices are never adjacent, so a clique lies wholly in
  // one class -- the one constraintClass() reads off its first member.
  for (unsigned K = 0; K < P.Cliques.numCliques(); ++K)
    for (VertexId V : P.Cliques.clique(K))
      assert(P.ClassOf[V] == P.constraintClass(K) &&
             "clique spans register classes; interference construction "
             "must not add cross-class edges");
#endif
  P.Chordal = true;
  P.G = std::make_shared<Graph>(std::move(G));
  return P;
}

AllocationProblem AllocationProblem::fromGeneralGraph(
    Graph G, std::vector<unsigned> Budgets, std::vector<RegClassId> ClassOf,
    std::vector<std::vector<VertexId>> PointLiveSets) {
  assert(!Budgets.empty() && "at least one register class required");
  AllocationProblem P;
  P.Budgets = std::move(Budgets);
  P.ClassOf = std::move(ClassOf);
  P.ClassOf.resize(G.numVertices(), 0);
  P.Chordal = false;

  // The constraints in CSR form: constraint K is Members[Offsets[K] ..
  // Offsets[K+1]).
  std::vector<uint32_t> Offsets{0};
  std::vector<VertexId> Members;
  auto AddConstraint = [&](const std::vector<VertexId> &Set) {
    Members.insert(Members.end(), Set.begin(), Set.end());
    Offsets.push_back(static_cast<uint32_t>(Members.size()));
  };
  if (!P.multiClass()) {
    for (const std::vector<VertexId> &Set : PointLiveSets)
      AddConstraint(Set);
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
        if (!Slice.empty() && Seen.insert(Slice).second)
          AddConstraint(Slice);
      }
    }
  }

  // Give uncovered vertices a singleton constraint so that "appears in some
  // constraint" holds for every vertex (solvers rely on it).
  std::vector<char> Covered(G.numVertices(), 0);
  for (VertexId V : Members) {
    assert(V < G.numVertices() && "constraint mentions unknown vertex");
    Covered[V] = 1;
  }
  for (VertexId V = 0; V < G.numVertices(); ++V)
    if (!Covered[V])
      AddConstraint({V});
  P.Cliques =
      CliqueCover(G.numVertices(), std::move(Offsets), std::move(Members));

  P.G = std::make_shared<Graph>(std::move(G));
  return P;
}

bool AllocationProblem::fitsBudgets() const {
  for (unsigned K = 0; K < Cliques.numCliques(); ++K)
    if (Cliques.clique(K).size() > constraintBudget(K))
      return false;
  return true;
}

AllocationProblem
AllocationProblem::withBudgets(std::vector<unsigned> NewBudgets) const {
  assert(NewBudgets.size() == Budgets.size() &&
         "withBudgets must keep the class structure");
  AllocationProblem Copy = *this; // Graph is shared, not copied.
  Copy.Budgets = std::move(NewBudgets);
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
    P = fromChordalGraph(std::move(Sub), {budgetOf(Class)}, {}, WS);
  } else {
    std::vector<std::vector<VertexId>> Sets;
    for (unsigned K = 0; K < Cliques.numCliques(); ++K) {
      if (constraintClass(K) != Class)
        continue;
      std::vector<VertexId> Local;
      for (VertexId V : Cliques.clique(K))
        Local.push_back(LocalOf[V]);
      Sets.push_back(std::move(Local));
    }
    P = fromGeneralGraph(std::move(Sub), {budgetOf(Class)}, {},
                         std::move(Sets));
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
  for (unsigned K = 0; K < P.Cliques.numCliques(); ++K) {
    unsigned Kept = 0;
    for (VertexId V : P.Cliques.clique(K))
      Kept += Allocated[V] ? 1 : 0;
    if (Kept > P.constraintBudget(K))
      return false;
  }
  return true;
}
