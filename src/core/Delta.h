//===- core/Delta.h - Warm-start delta allocation ---------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delta-solving for JIT resubmissions (paper §6.2; ROADMAP "incremental/
/// warm-start allocation").  A retained \c DeltaBase keeps the expensive
/// round-0 artifacts of a previously solved function -- liveness, spill
/// costs, the chordal problem (interference graph + PEO + clique tree) and
/// the first allocation -- so a resubmission that differs only in ways
/// that provably cannot change the interference structure skips straight
/// past liveness fixpoints, interference construction and MCS.
///
/// Safety is all-or-nothing by design.  computeFunctionDelta() admits a
/// resubmission only when the CFG shape, value count, per-value register
/// classes and every instruction's def/use/phi structure are identical to
/// the base; under that predicate liveness and the interference graph are
/// *provably* equal (spill costs and live-interval costs may still differ
/// through block frequencies, which is exactly the hot JIT case:
/// recompilation after new profile counts).  Anything else -- an added
/// instruction, a changed edge, a renamed class -- is rejected and the
/// caller falls back to a full solve.  The fallback is not a degraded
/// mode: the delta path must produce byte-identical reports to the full
/// path (fuzz/Oracles.cpp `delta-vs-full` enforces this), so rejecting is
/// always correct, just slower.
///
/// Why whole-problem reuse instead of patching changed regions only: the
/// MCS elimination order is sensitive to vertex *insertion order* and
/// tie-breaking, so splicing rebuilt subgraphs into a retained PEO cannot
/// reproduce the bytes a from-scratch solve emits.  Provable wholesale
/// reuse keeps the byte-equality contract checkable; the changed-block set
/// still scopes the recomputation that does happen (costs and intervals
/// are linear passes, the parts we skip are the superlinear ones).
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_CORE_DELTA_H
#define LAYRA_CORE_DELTA_H

#include "core/AllocationProblem.h"
#include "ir/Liveness.h"
#include "ir/Program.h"
#include "ir/Target.h"

#include <optional>
#include <string>
#include <vector>

namespace layra {

/// Outcome of comparing a resubmitted function against a retained base.
struct FunctionDelta {
  /// True when the resubmission is structurally identical to the base
  /// (same CFG, values, classes, defs/uses/phis) and the delta path may
  /// reuse the base's liveness and interference structure wholesale.
  bool Compatible = false;
  /// Blocks whose content hash differs from the base (any field,
  /// including frequencies and opcode kinds).  Empty + Compatible means
  /// the resubmission is a byte-level duplicate of the base.
  std::vector<unsigned> ChangedBlocks;
  /// First structural mismatch when !Compatible (diagnostics only).
  std::string Reason;
};

/// Compares \p New against \p Base block by block.  Both functions must be
/// valid; they are typically strict SSA (the pipeline's input form).
FunctionDelta computeFunctionDelta(const Function &Base, const Function &New);

/// Retained artifacts of one solved base function, captured by the
/// pipeline on request (PipelineDeltaContext::Capture) and kept in the
/// BatchDriver's bounded base registry.
struct DeltaBase {
  /// The base function in the exact SSA form the pipeline solved.
  Function Ssa{"<base>"};
  /// Base liveness (valid whenever the capture completed).
  std::optional<Liveness> Live;
  /// Base spill costs, aligned with Ssa's values.
  std::vector<Weight> Costs;
  /// The round-0 allocation problem at the base's budgets.
  AllocationProblem Problem;
  /// Allocator that produced Round0 (PipelineOptions::AllocatorName).
  /// Kept as a name so core/ does not depend on alloc/.
  std::string AllocatorName;
  /// Result of the first allocation executed on Problem.
  AllocationResult Round0;
  bool HasRound0 = false;
};

/// Builds the round-0 problem for \p F from \p Base without running
/// liveness, interference construction or MCS.  Returns false (leaving
/// \p Out untouched) when the delta is structurally incompatible -- the
/// caller must fall back to a full buildSsaProblem().
///
/// On success \p ExactRound0 reports whether \p Out is *identical* to
/// Base.Problem (equal recomputed costs and equal budgets): in that case
/// a caller using Base.AllocatorName may reuse Base.Round0 instead of
/// allocating, because allocateProblem is a pure function of the problem.
///
/// \p WithIntervals says whether the consuming allocator reads live
/// intervals: \p Out carries them exactly when it is true, rebuilt from
/// the retained liveness where the base was captured without them, just
/// as buildSsaProblem(..., WithIntervals) would.  Only the interval table
/// can then differ from Base.Problem, and only under an allocator other
/// than Base.AllocatorName, which never reuses Base.Round0.
bool buildDeltaProblem(const DeltaBase &Base, const Function &F,
                       const TargetDesc &Target,
                       const std::vector<unsigned> &Budgets,
                       AllocationProblem &Out, bool &ExactRound0,
                       bool WithIntervals = true);

/// Optional delta channel of one runAllocationPipeline() call.  At most
/// one of Base/Capture is set by the driver: Base feeds the warm-start
/// path, Capture asks the pipeline to retain this run's round-0
/// artifacts for future deltas.
struct PipelineDeltaContext {
  /// Warm-start source; null for a plain run.
  const DeltaBase *Base = nullptr;
  /// When non-null, filled with this run's base artifacts.
  DeltaBase *Capture = nullptr;
  /// Out: the round-0 problem came from buildDeltaProblem().
  bool UsedDelta = false;
  /// Out: the round-0 allocation was reused from Base->Round0.
  bool WarmStarted = false;
};

} // namespace layra

#endif // LAYRA_CORE_DELTA_H
