//===- alloc/LinearScan.h - Linear scan baselines ----------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-scan allocators over flattened live intervals -- the paper's §6.2
/// JIT baselines:
///  - LS ("DLS" in Figure 14): the original Poletto-Sarkar policy, spilling
///    the interval whose live range ends furthest, blind to spill costs;
///  - BLS: cost-guided spilling that falls back to Belady's furthest-first
///    rule among candidates whose costs are within a threshold of the
///    cheapest (paper: "if their costs are close enough").
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_ALLOC_LINEARSCAN_H
#define LAYRA_ALLOC_LINEARSCAN_H

#include "alloc/Allocator.h"

namespace layra {

/// Linear scan over AllocationProblem::Intervals (which must be present).
class LinearScanAllocator : public Allocator {
public:
  /// Spill-choice policy.
  enum class PolicyKind {
    FurthestEnd, ///< LS / DLS: spill the interval ending last.
    CostBelady,  ///< BLS: cheapest cost, Belady tie-break within Threshold.
  };

  explicit LinearScanAllocator(PolicyKind Policy, double Threshold = 0.25)
      : Policy(Policy), Threshold(Threshold) {}

  using Allocator::allocate;
  AllocationResult allocate(const AllocationProblem &P,
                            SolverWorkspace *WS) override;
  const char *name() const override {
    return Policy == PolicyKind::FurthestEnd ? "ls" : "bls";
  }
  bool requiresIntervals() const override { return true; }

private:
  PolicyKind Policy;
  /// BLS: candidates with Cost <= (1 + Threshold) * min cost compete on
  /// furthest end.
  double Threshold;
};

} // namespace layra

#endif // LAYRA_ALLOC_LINEARSCAN_H
