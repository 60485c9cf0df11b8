//===- alloc/Pipeline.h - Iterative allocation pipeline ---------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end driver a backend would call: allocate, materialise spill
/// code, and -- because reload temporaries themselves occupy registers
/// (paper §4.3: "we can iteratively update the interferences after
/// allocation") -- re-derive the interference graph and iterate until the
/// function's register pressure fits the machine or MaxRounds is reached.
/// On targets with addressing modes, single-use reloads are folded into
/// their consumers after each rewrite round.  Finally it assigns registers
/// to the values left in registers, by default biased so that values
/// joined by a copy share a register (AffinityBias).
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_ALLOC_PIPELINE_H
#define LAYRA_ALLOC_PIPELINE_H

#include "alloc/Allocator.h"
#include "core/Assignment.h"
#include "ir/Program.h"
#include "ir/SpillRewriter.h"
#include "ir/Target.h"

#include <string>

namespace layra {

class SolverWorkspace;

/// Configuration of one pipeline run.
struct PipelineOptions {
  /// Allocator name (makeAllocator) used each round.
  std::string AllocatorName = "bfpl";
  /// Bias the final assignment toward removing copies.
  bool AffinityBias = true;
  /// Safety cap on allocate/rewrite rounds.
  unsigned MaxRounds = 4;
  /// On targets with addressing modes (TargetDesc::MaxMemOperands > 0),
  /// fold single-use reloads into their consumers after each rewrite
  /// round (paper §4.3).  Folding deletes reload temporaries, so it only
  /// ever lowers the pressure the next round sees.
  bool FoldMemoryOperands = true;
};

/// Outcome of the pipeline.
struct PipelineResult {
  /// The function with all spill code inserted (SSA is preserved).
  Function Rewritten{"<empty>"};
  /// Final register assignment over the rewritten function's values.
  Assignment Regs;
  /// Total static spill cost across rounds (weights of spilled values).
  Weight TotalSpillCost = 0;
  /// Aggregate spill-code statistics.  NumLoads counts reloads as inserted;
  /// LoadsFolded of them were later absorbed into memory operands.
  SpillRewriteStats Spills;
  /// Reloads folded into consuming instructions (CISC targets only).
  unsigned LoadsFolded = 0;
  /// Static cost of copies left after assignment (affinities not unified).
  Weight RemainingCopyCost = 0;
  /// Rounds executed (1 = no reload pressure correction was needed).
  unsigned Rounds = 0;
  /// MaxLive of the rewritten function.
  unsigned FinalMaxLive = 0;
  /// True when the final pressure fits the budgets and the assignment
  /// succeeded within them.
  bool Fits = false;
};

/// Runs the full decoupled pipeline on strict-SSA \p F.  \p Budgets holds
/// one register count per target class: {R} on a one-class target,
/// resolveClassBudgets (ir/Target.h) to give every class but class 0 its
/// architectural count.  Each round allocates every class -- the
/// allocator decomposes multi-class instances per class -- and rewrites
/// all spills at once; spill temporaries inherit their value's class, so
/// reload pressure stays within the file that caused it.
/// \pre verifyFunction(F, /*ExpectSsa=*/true).
///
/// \p WS optionally supplies the solver scratch shared by every round's
/// problem construction and allocation (core/SolverWorkspace.h).  The
/// BatchDriver passes one workspace per pool worker, so consecutive tasks
/// on a worker reuse the same arenas; results are bit-identical with and
/// without a workspace.
///
/// \p Round0 optionally supplies the problem of \p F itself, built by
/// buildSsaProblem with \p Target's spill costs at *any* budgets, and with
/// live intervals when the allocator reads them.  Round 0 (and the final
/// assignment when no round rewrote \p F) then starts from
/// `Round0->withBudgets(Budgets)` instead of rebuilding: the problem's
/// graph and constraints do not depend on the budgets, so a register sweep
/// builds each function's first problem once (driver/BatchDriver.cpp does).
/// Results are identical with and without it.
PipelineResult runAllocationPipeline(const Function &F,
                                     const TargetDesc &Target,
                                     const std::vector<unsigned> &Budgets,
                                     const PipelineOptions &Options = {},
                                     SolverWorkspace *WS = nullptr,
                                     const AllocationProblem *Round0 = nullptr);

} // namespace layra

#endif // LAYRA_ALLOC_PIPELINE_H
