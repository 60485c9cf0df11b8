//===- core/ProblemBuilder.h - Function -> allocation problem ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds AllocationProblems from IR functions: liveness, spill costs,
/// interference graph, pressure constraints and live intervals in one call.
/// This is the front door of the library for compiler-derived instances.
///
/// Register classes: every entry point takes one budget per target class
/// ({R} on a one-class target; resolveClassBudgets in ir/Target.h gives
/// class 0 the swept count and every other class its architectural one).
/// The built problem is trimmed to the classes the function actually uses,
/// so a class-0-only function on a multi-class target yields the identical
/// single-class instance it would on a one-class target.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_CORE_PROBLEMBUILDER_H
#define LAYRA_CORE_PROBLEMBUILDER_H

#include "core/AllocationProblem.h"
#include "ir/Program.h"
#include "ir/Target.h"

#include <vector>

namespace layra {

class SolverWorkspace;

/// Builds a *chordal* instance from a strict-SSA function: the interference
/// graph of SSA code is chordal and its maximal cliques are the maximal
/// per-class live sets.  Aborts (via the chordality check) if \p F is not
/// in SSA form.  \p WithIntervals false leaves AllocationProblem::Intervals
/// empty, for consumers whose allocator never reads them.
AllocationProblem buildSsaProblem(const Function &F, const TargetDesc &Target,
                                  const std::vector<unsigned> &Budgets,
                                  SolverWorkspace *WS = nullptr,
                                  bool WithIntervals = true);

/// Builds a *general* instance from any function (typically non-SSA, as in
/// the paper's JikesRVM evaluation): point live sets become the ILP
/// constraints; flattened live intervals are attached for the linear-scan
/// baselines.
AllocationProblem buildGeneralProblem(const Function &F,
                                      const TargetDesc &Target,
                                      const std::vector<unsigned> &Budgets);

} // namespace layra

#endif // LAYRA_CORE_PROBLEMBUILDER_H
