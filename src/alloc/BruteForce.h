//===- alloc/BruteForce.h - Exhaustive oracle for tests ---------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive enumeration over all 2^N allocations -- the ground-truth
/// oracle the test suite uses to certify the branch-and-bound solver and the
/// quasi-optimality claims on small instances.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_ALLOC_BRUTEFORCE_H
#define LAYRA_ALLOC_BRUTEFORCE_H

#include "alloc/Allocator.h"

namespace layra {

/// Exhaustive optimal allocator.  \pre N <= 24 vertices.
class BruteForceAllocator : public Allocator {
public:
  using Allocator::allocate;
  AllocationResult allocate(const AllocationProblem &P,
                            SolverWorkspace *WS) override;
  const char *name() const override { return "brute"; }
};

} // namespace layra

#endif // LAYRA_ALLOC_BRUTEFORCE_H
