//===- Replay.cpp - The allocation pipeline, one public call at a time -----===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "core/Coalescing.h"
#include "ir/Interference.h"
#include "ir/LiveIntervals.h"
#include "ir/Liveness.h"
#include "ir/OperandFolding.h"
#include "ir/SpillRewriter.h"

#include <memory>
#include <optional>
#include <stdexcept>

using namespace layra;
using namespace perfbench;

void LayerCounts::add(const LayerCounts &Other) {
  LivenessCalls += Other.LivenessCalls;
  InterferenceEdges += Other.InterferenceEdges;
  SpillInstrs += Other.SpillInstrs;
  Vertices += Other.Vertices;
  Cliques += Other.Cliques;
  AllocateCalls += Other.AllocateCalls;
  Rounds += Other.Rounds;
  Builds += Other.Builds;
}

namespace {

/// buildSsaProblem (core/ProblemBuilder.cpp) split into its layer calls.
AllocationProblem buildProblem(const Function &F, const TargetDesc &Target,
                               const std::vector<unsigned> &Budgets,
                               SolverWorkspace &WS, SpanRecorder &Rec,
                               uint64_t Id, LayerCounts &Counts) {
  ++Counts.Builds;
  std::optional<Liveness> Live;
  {
    ScopedSpan S(Rec, span::Liveness, Id);
    Live.emplace(F);
  }
  ++Counts.LivenessCalls;
  std::vector<Weight> Costs;
  {
    ScopedSpan S(Rec, span::SpillCosts, Id);
    Costs = computeSpillCosts(F, Target);
  }
  std::optional<InterferenceInfo> Info;
  {
    ScopedSpan S(Rec, span::Interference, Id);
    Info.emplace(buildInterference(F, *Live, Costs, &WS,
                                   /*CollectPointSets=*/false));
  }
  Counts.InterferenceEdges += Info->G.numEdges();
  // The budgets and classes of the classes F uses (resolveClasses).
  std::vector<unsigned> UsedBudgets(Budgets.begin(),
                                    Budgets.begin() + (F.maxValueClass() + 1));
  std::vector<RegClassId> ClassOf;
  if (F.maxValueClass() > 0)
    for (ValueId V = 0; V < F.numValues(); ++V)
      ClassOf.push_back(F.valueClass(V));
  std::optional<AllocationProblem> P;
  {
    ScopedSpan S(Rec, span::Chordal, Id);
    P.emplace(AllocationProblem::fromChordalGraph(
        std::move(Info->G), std::move(UsedBudgets), std::move(ClassOf), &WS));
  }
  Counts.Vertices += P->graph().numVertices();
  Counts.Cliques += P->Cliques.numCliques();
  {
    ScopedSpan S(Rec, span::LiveIntervals, Id);
    P->Intervals = computeLiveIntervals(F, *Live, Costs);
  }
  return std::move(*P);
}

} // namespace

PipelineResult perfbench::replayPipeline(const Function &F,
                                         const TargetDesc &Target,
                                         const std::vector<unsigned> &Budgets,
                                         const PipelineOptions &Options,
                                         SolverWorkspace &WS, SpanRecorder &Rec,
                                         uint64_t Id, LayerCounts &Counts) {
  ScopedSpan PipelineSpan(Rec, span::Pipeline, Id);
  std::unique_ptr<Allocator> Alloc = makeAllocator(Options.AllocatorName);
  if (!Alloc)
    throw std::invalid_argument("unknown allocator " + Options.AllocatorName);
  if (F.maxValueClass() >= Budgets.size())
    throw std::invalid_argument("function uses a class without a budget");

  auto allocate = [&](const AllocationProblem &P) {
    ScopedSpan S(Rec, span::Allocate, Id);
    ++Counts.AllocateCalls;
    return Alloc->allocateProblem(P, &WS);
  };

  PipelineResult Out;
  {
    ScopedSpan S(Rec, span::Copy, Id);
    Out.Rewritten = F;
  }
  std::optional<AllocationProblem> Current;
  std::vector<char> Pinned(F.numValues(), 0);
  for (unsigned Round = 0; Round < Options.MaxRounds; ++Round) {
    ++Out.Rounds;
    ++Counts.Rounds;
    Current.emplace(
        buildProblem(Out.Rewritten, Target, Budgets, WS, Rec, Id, Counts));
    AllocationProblem &P = *Current;
    if (P.fitsBudgets())
      break;
    AllocationResult Result = allocate(P);
    std::vector<char> Spilled(Out.Rewritten.numValues(), 0);
    unsigned NumSpilled = 0;
    for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
      if (Result.Allocated[V] || (V < Pinned.size() && Pinned[V]))
        continue;
      Spilled[V] = 1;
      Out.TotalSpillCost += P.graph().weight(V);
      ++NumSpilled;
    }
    if (NumSpilled == 0)
      break;
    SpillRewriteStats Stats;
    {
      ScopedSpan S(Rec, span::SpillRewrite, Id);
      Stats = rewriteSpills(Out.Rewritten, Spilled);
    }
    Counts.SpillInstrs += Stats.NumLoads + Stats.NumStores;
    Out.Spills.NumLoads += Stats.NumLoads;
    Out.Spills.NumStores += Stats.NumStores;
    Out.Spills.NumSlots += Stats.NumSlots;
    if (Options.FoldMemoryOperands && Target.MaxMemOperands > 0) {
      ScopedSpan S(Rec, span::OperandFold, Id);
      Out.LoadsFolded += foldMemoryOperands(Out.Rewritten, Target).LoadsFolded;
    }
    Pinned.resize(Out.Rewritten.numValues(), 0);
    for (VertexId V = 0; V < Spilled.size(); ++V)
      if (Spilled[V])
        Pinned[V] = 1;
    ScopedSpan Free(Rec, span::ProblemFree, Id);
    Current.reset();
  }
  if (!Current)
    Current.emplace(
        buildProblem(Out.Rewritten, Target, Budgets, WS, Rec, Id, Counts));
  AllocationProblem &P = *Current;
  AllocationResult Final = allocate(P);
  Out.FinalMaxLive = P.maxLive();
  bool FinalFits = P.fitsBudgets();

  {
    ScopedSpan AssignSpan(Rec, span::Assign, Id);
    std::vector<Affinity> Affinities = collectAffinities(Out.Rewritten);
    Out.Regs = Options.AffinityBias
                   ? assignRegistersBiased(P, Final.Allocated, Affinities)
                   : assignRegisters(P, Final.Allocated);
    Out.RemainingCopyCost =
        remainingCopyCost(Affinities, Final.Allocated, Out.Regs.RegisterOf);
  }
  Out.TotalSpillCost += Final.SpillCost;
  Out.Fits = FinalFits || (Final.SpillCost == 0 && Out.Regs.Success);
  Out.Fits = Out.Fits && Out.Regs.Success;
  ScopedSpan Free(Rec, span::ProblemFree, Id);
  Current.reset();
  return Out;
}
