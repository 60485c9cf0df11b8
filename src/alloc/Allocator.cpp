//===- alloc/Allocator.cpp - Common allocator interface --------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "alloc/Allocator.h"

#include "alloc/GraphColoring.h"
#include "alloc/LinearScan.h"
#include "alloc/OptimalBnB.h"
#include "core/Layered.h"
#include "core/LayeredHeuristic.h"
#include "core/SolverWorkspace.h"

using namespace layra;

Allocator::~Allocator() = default;

AllocationResult Allocator::allocateProblem(const AllocationProblem &P,
                                            SolverWorkspace *WS) {
  if (!P.multiClass())
    return allocate(P, WS);

  // Exact per-class decomposition: register classes partition the vertices
  // and every pressure constraint lies within one class, so the instance
  // is the disjoint union of single-class instances.  Each one is solved
  // with this very allocator; flags merge through the local -> global
  // vertex maps.
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  std::vector<char> &Merged = WS->acquire(
      WS->ClassSplit.MergedFlags, P.graph().numVertices(), char(0));
  bool Proven = true;
  for (RegClassId Class = 0; Class < P.numClasses(); ++Class) {
    // The subproblem owns its storage, so the shared ToGlobal scratch is
    // free for the next class after the merge below.
    std::vector<VertexId> &ToGlobal =
        WS->acquireCleared(WS->ClassSplit.ToGlobal);
    AllocationProblem Sub = P.projectClass(Class, ToGlobal, WS);
    if (Sub.graph().numVertices() == 0)
      continue; // Class has a budget but no values.
    AllocationResult R = allocate(Sub, WS);
    Proven &= R.Proven;
    for (VertexId Local = 0; Local < R.Allocated.size(); ++Local)
      if (R.Allocated[Local])
        Merged[ToGlobal[Local]] = 1;
  }
  AllocationResult Out = AllocationResult::fromFlags(
      P.graph(), std::vector<char>(Merged.begin(), Merged.end()));
  Out.Proven = Proven;
  assert(isFeasibleAllocation(P, Out.Allocated) &&
         "per-class decomposition produced an infeasible allocation");
  return Out;
}

namespace {
/// Adapts the layered-optimal variants (free functions in core) to the
/// Allocator interface.
class LayeredAdapter : public Allocator {
public:
  LayeredAdapter(const char *Name, LayeredOptions Options)
      : AdapterName(Name), Options(Options) {}

  AllocationResult allocate(const AllocationProblem &P,
                            SolverWorkspace *WS) override {
    return layeredAllocate(P, Options, WS);
  }
  const char *name() const override { return AdapterName; }

private:
  const char *AdapterName;
  LayeredOptions Options;
};

/// Adapts the layered heuristic (general graphs).
class LayeredHeuristicAdapter : public Allocator {
public:
  AllocationResult allocate(const AllocationProblem &P,
                            SolverWorkspace *WS) override {
    return layeredHeuristicAllocate(P, WS).Allocation;
  }
  const char *name() const override { return "lh"; }
};
} // namespace

std::unique_ptr<Allocator> layra::makeAllocator(const std::string &Name) {
  if (Name == "gc")
    return std::make_unique<GraphColoringAllocator>();
  if (Name == "nl")
    return std::make_unique<LayeredAdapter>("nl", LayeredOptions::nl());
  if (Name == "bl")
    return std::make_unique<LayeredAdapter>("bl", LayeredOptions::bl());
  if (Name == "fpl")
    return std::make_unique<LayeredAdapter>("fpl", LayeredOptions::fpl());
  if (Name == "bfpl")
    return std::make_unique<LayeredAdapter>("bfpl", LayeredOptions::bfpl());
  if (Name == "lh")
    return std::make_unique<LayeredHeuristicAdapter>();
  if (Name == "ls")
    return std::make_unique<LinearScanAllocator>(
        LinearScanAllocator::PolicyKind::FurthestEnd);
  if (Name == "bls")
    return std::make_unique<LinearScanAllocator>(
        LinearScanAllocator::PolicyKind::CostBelady);
  if (Name == "optimal")
    return std::make_unique<OptimalBnBAllocator>();
  return nullptr;
}

std::vector<std::string> layra::allAllocatorNames() {
  return {"gc", "nl", "bl", "fpl", "bfpl", "lh", "ls", "bls", "optimal"};
}
