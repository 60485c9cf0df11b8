//===- Replay.h - The allocation pipeline, one public call at a time -*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run cannot put spans inside the library, so it replays
/// runAllocationPipeline's round loop (alloc/Pipeline.cpp) through the
/// public entry points of each layer and times every call from outside.
/// The replay must produce exactly what runAllocationPipeline produces;
/// the workloads assert that on every task (diffPipelineResults), so a
/// pipeline change that the replay does not mirror fails the traced run
/// instead of silently measuring something else.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Spans.h"

#include "alloc/Pipeline.h"
#include "core/SolverWorkspace.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// Deterministic work counts of replayed pipelines, summed over calls.
struct LayerCounts {
  uint64_t LivenessCalls = 0;
  uint64_t InterferenceEdges = 0;
  uint64_t SpillInstrs = 0; ///< Loads and stores rewriteSpills inserted.
  uint64_t Vertices = 0;    ///< Vertices of every chordal problem built.
  uint64_t Cliques = 0;     ///< Maximal cliques of every problem built.
  uint64_t AllocateCalls = 0;
  uint64_t Rounds = 0;
  uint64_t Builds = 0;

  void add(const LayerCounts &Other);
};

/// Span names of the pipeline's layers, as they appear in the trace.
namespace span {
inline constexpr const char *Task = "task";
inline constexpr const char *Ssa = "ir.ssa";
inline constexpr const char *Pipeline = "alloc.pipeline";
/// The pipeline rewrites a copy of its input function.
inline constexpr const char *Copy = "ir.copy";
inline constexpr const char *Liveness = "ir.liveness";
inline constexpr const char *SpillCosts = "ir.spill_costs";
inline constexpr const char *Interference = "ir.interference";
inline constexpr const char *Chordal = "graph.chordal";
inline constexpr const char *LiveIntervals = "ir.live_intervals";
inline constexpr const char *Allocate = "core.allocate";
inline constexpr const char *SpillRewrite = "ir.spill_rewrite";
inline constexpr const char *OperandFold = "ir.operand_fold";
inline constexpr const char *Assign = "core.assign";
/// Freeing a round's problem (graph, cliques, intervals) before the next.
inline constexpr const char *ProblemFree = "core.problem_free";
} // namespace span

/// Runs runAllocationPipeline(F, Target, Budgets, Options) as a sequence
/// of public layer calls, each in a span tagged \p TaskId under one
/// "alloc.pipeline" span.  \pre F is strict SSA.
layra::PipelineResult replayPipeline(const layra::Function &F,
                                     const layra::TargetDesc &Target,
                                     const std::vector<unsigned> &Budgets,
                                     const layra::PipelineOptions &Options,
                                     layra::SolverWorkspace &WS,
                                     SpanRecorder &Rec, uint64_t TaskId,
                                     LayerCounts &Counts);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
