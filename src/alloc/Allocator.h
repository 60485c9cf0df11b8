//===- alloc/Allocator.h - Common allocator interface -----------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform interface the benchmark harness drives: every spilling
/// algorithm of the paper's evaluation (§6) is an Allocator that maps an
/// AllocationProblem to an AllocationResult.  makeAllocator() resolves the
/// names used in the paper's figures ("gc", "nl", "bl", "fpl", "bfpl", "lh",
/// "ls", "bls", "optimal", ...).
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_ALLOC_ALLOCATOR_H
#define LAYRA_ALLOC_ALLOCATOR_H

#include "core/AllocationProblem.h"

#include <memory>
#include <string>
#include <vector>

namespace layra {

class SolverWorkspace;

/// Abstract spilling/allocation algorithm.
class Allocator {
public:
  virtual ~Allocator();

  /// Solves \p P, reusing \p WS's scratch arenas (core/SolverWorkspace.h)
  /// when given; allocators without reusable scratch ignore it.  Results
  /// of all allocators are feasible w.r.t. the point constraints
  /// (isFeasibleAllocation); exact solvers set Result.Proven.  Results are
  /// bit-identical with and without a workspace and across workspace
  /// histories -- a workspace only carries capacity, never state.
  virtual AllocationResult allocate(const AllocationProblem &P,
                                    SolverWorkspace *WS) = 0;

  /// Solves \p P with scratch of its own.  An override hides this
  /// overload, so subclasses that callers name directly re-export it with
  /// `using Allocator::allocate`.
  AllocationResult allocate(const AllocationProblem &P) {
    return allocate(P, nullptr);
  }

  /// Class-aware entry point -- what the pipeline and the batch driver
  /// call.  Single-class instances go straight to allocate() (identical
  /// results, identical cost).  Multi-class instances decompose exactly
  /// into independent per-class subproblems -- classes never share a
  /// pressure constraint -- which are each solved with this allocator and
  /// merged; Proven holds iff every class's solve proved optimality, and
  /// since the objective is additive across classes the merged result is
  /// optimal whenever the parts are.
  AllocationResult allocateProblem(const AllocationProblem &P,
                                   SolverWorkspace *WS = nullptr);

  /// Short name as used in the paper's figures.
  virtual const char *name() const = 0;

  /// True when this allocator consumes AllocationProblem::Intervals (the
  /// linear-scan family).  Batch entry points check it up front so a
  /// graph-only instance (fromChordalGraph / fromGeneralGraph paths, which
  /// carry no interval table) produces a clean per-call error instead of a
  /// process-killing fatal inside the solve.
  virtual bool requiresIntervals() const { return false; }
};

/// Creates an allocator by figure name.  Known names:
///   "gc"            Chaitin-Briggs optimistic graph coloring
///   "nl","bl","fpl","bfpl"  the layered-optimal variants (chordal only)
///   "lh"            layered heuristic (any graph)
///   "ls"            linear scan, cost-blind furthest-end spilling ("DLS")
///   "bls"           linear scan with cost/Belady threshold spilling
///   "optimal"       exact branch-and-bound over the point constraints
/// Returns nullptr for unknown names.  The exhaustive BruteForceAllocator
/// (alloc/BruteForce.h) is deliberately not among them: it is limited to
/// tiny instances, so tests construct it directly.
std::unique_ptr<Allocator> makeAllocator(const std::string &Name);

/// All names makeAllocator accepts (in a stable presentation order).
std::vector<std::string> allAllocatorNames();

} // namespace layra

#endif // LAYRA_ALLOC_ALLOCATOR_H
