//===- alloc/BruteForce.cpp - Exhaustive oracle for tests ------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "alloc/BruteForce.h"

#include "support/Compiler.h"

using namespace layra;

AllocationResult BruteForceAllocator::allocate(const AllocationProblem &P,
                                               SolverWorkspace *) {
  unsigned N = P.graph().numVertices();
  if (N > 24)
    layraFatalError("brute-force allocator limited to 24 vertices");

  // Budgets are per constraint (multi-class instances carry one budget per
  // class; single-class instances one uniform R).
  std::vector<std::pair<uint32_t, unsigned>> ConstraintMask;
  for (unsigned K = 0; K < P.Cliques.numCliques(); ++K) {
    NeighborRange Members = P.Cliques.clique(K);
    unsigned Budget = P.constraintBudget(K);
    if (Members.size() <= Budget)
      continue; // Never binding.
    uint32_t Mask = 0;
    for (VertexId V : Members)
      Mask |= uint32_t(1) << V;
    ConstraintMask.push_back({Mask, Budget});
  }

  uint32_t BestSet = 0;
  Weight BestWeight = -1;
  for (uint64_t Subset = 0; Subset < (uint64_t(1) << N); ++Subset) {
    uint32_t Bits = static_cast<uint32_t>(Subset);
    bool Feasible = true;
    for (const auto &[Mask, Budget] : ConstraintMask)
      if (layraPopcount(Bits & Mask) > static_cast<int>(Budget)) {
        Feasible = false;
        break;
      }
    if (!Feasible)
      continue;
    Weight W = 0;
    for (unsigned V = 0; V < N; ++V)
      if (Bits & (uint32_t(1) << V))
        W += P.graph().weight(V);
    if (W > BestWeight) {
      BestWeight = W;
      BestSet = Bits;
    }
  }

  std::vector<char> Flags(N, 0);
  for (unsigned V = 0; V < N; ++V)
    if (BestSet & (uint32_t(1) << V))
      Flags[V] = 1;
  AllocationResult Result = AllocationResult::fromFlags(P.graph(), std::move(Flags));
  Result.Proven = true;
  return Result;
}
