//===- core/ProblemBuilder.cpp - Function -> allocation problem ------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/ProblemBuilder.h"

#include "ir/Interference.h"
#include "ir/Liveness.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

using namespace layra;

/// Trims \p Budgets to the classes \p F actually uses and collects the
/// per-value classes.  A function that never left class 0 produces the
/// one-element budget vector -- the single-class fast path every solver
/// special-cases -- regardless of how many classes the target has.
static void resolveClasses(const Function &F,
                           const std::vector<unsigned> &Budgets,
                           std::vector<unsigned> &UsedBudgets,
                           std::vector<RegClassId> &ClassOf) {
  if (F.maxValueClass() >= Budgets.size())
    layraFatalError("function uses a register class the target (or budget "
                    "vector) does not have");
  UsedBudgets.assign(Budgets.begin(),
                     Budgets.begin() + (F.maxValueClass() + 1));
  ClassOf.clear();
  if (F.maxValueClass() == 0)
    return; // Sparse default: all class 0.
  ClassOf.reserve(F.numValues());
  for (ValueId V = 0; V < F.numValues(); ++V)
    ClassOf.push_back(F.valueClass(V));
}

AllocationProblem layra::buildSsaProblem(const Function &F,
                                         const TargetDesc &Target,
                                         const std::vector<unsigned> &Budgets,
                                         SolverWorkspace *WS,
                                         bool WithIntervals) {
  assert(verifyFunction(F, /*ExpectSsa=*/true) &&
         "buildSsaProblem requires a strict SSA function");
  PhaseSpan BuildSpan(Phase::ProblemBuild);
  Liveness Live(F);
  std::vector<Weight> Costs = computeSpillCosts(F, Target);
  // Chordal constraints come from the maximal cliques, so the per-point
  // live-set dedup is skipped (CollectPointSets = false).
  InterferenceInfo Info =
      buildInterference(F, Live, Costs, WS, /*CollectPointSets=*/false);
  std::vector<unsigned> UsedBudgets;
  std::vector<RegClassId> ClassOf;
  resolveClasses(F, Budgets, UsedBudgets, ClassOf);
  AllocationProblem P = AllocationProblem::fromChordalGraph(
      std::move(Info.G), std::move(UsedBudgets), std::move(ClassOf), WS);
  if (WithIntervals)
    P.Intervals = computeLiveIntervals(F, Live, Costs);
  return P;
}

AllocationProblem
layra::buildGeneralProblem(const Function &F, const TargetDesc &Target,
                           const std::vector<unsigned> &Budgets) {
  assert(verifyFunction(F) && "buildGeneralProblem requires a valid function");
  PhaseSpan BuildSpan(Phase::ProblemBuild);
  Liveness Live(F);
  std::vector<Weight> Costs = computeSpillCosts(F, Target);
  InterferenceInfo Info = buildInterference(F, Live, Costs);
  std::vector<unsigned> UsedBudgets;
  std::vector<RegClassId> ClassOf;
  resolveClasses(F, Budgets, UsedBudgets, ClassOf);
  AllocationProblem P = AllocationProblem::fromGeneralGraph(
      std::move(Info.G), std::move(UsedBudgets), std::move(ClassOf),
      std::move(Info.PointLiveSets));
  P.Intervals = computeLiveIntervals(F, Live, Costs);
  return P;
}
