//===- alloc/Pipeline.cpp - Iterative allocation pipeline ------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "alloc/Pipeline.h"

#include "core/Coalescing.h"
#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "ir/OperandFolding.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

#include <optional>

using namespace layra;

PipelineResult layra::runAllocationPipeline(
    const Function &F, const TargetDesc &Target,
    const std::vector<unsigned> &Budgets, const PipelineOptions &Options,
    SolverWorkspace *WS, const AllocationProblem *Round0) {
  assert(verifyFunction(F, /*ExpectSsa=*/true) &&
         "pipeline requires strict SSA input");
  PhaseSpan PipelineSpan(Phase::Pipeline);
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  std::unique_ptr<Allocator> Alloc = makeAllocator(Options.AllocatorName);
  if (!Alloc)
    layraFatalError("unknown allocator name in pipeline options");

  // Live intervals are built only for an allocator that reads them (the
  // linear-scan family); every other round skips computeLiveIntervals.
  const bool WithIntervals = Alloc->requiresIntervals();

  PipelineResult Out;
  Out.Rewritten = F;

  // The problem matching Out.Rewritten, when one has been built and no
  // rewrite invalidated it.  Rounds that exit the loop via `break` leave
  // it valid, so the final assignment reuses it instead of rebuilding --
  // one buildSsaProblem saved on every function that converges (which is
  // most of them), with identical results: the rebuild would run on the
  // exact same function.
  std::optional<AllocationProblem> Current;

  // The caller's problem of F stands in for a build until a rewrite
  // changes Out.Rewritten.  It is trimmed to the classes F uses, as
  // buildSsaProblem trims its budgets.
  if (Round0 && Round0->numClasses() > Budgets.size())
    layraFatalError("function uses a register class the target (or budget "
                    "vector) does not have");
  assert((!Round0 || !WithIntervals || Round0->Intervals) &&
         "round-0 problem lacks the intervals the allocator reads");
  const AllocationProblem *Unchanged = Round0;
  auto build = [&] {
    if (Unchanged)
      return Unchanged->withBudgets(std::vector<unsigned>(
          Budgets.begin(), Budgets.begin() + Unchanged->numClasses()));
    return buildSsaProblem(Out.Rewritten, Target, Budgets, WS, WithIntervals);
  };
  auto allocate = [&](const AllocationProblem &P) {
    PhaseSpan AllocSpan(Phase::Allocate);
    return Alloc->allocateProblem(P, WS);
  };

  // Values spilled in an earlier round live only from def to the adjacent
  // store; spilling them again would be wasted motion, so they are pinned.
  std::vector<char> &Pinned =
      WS->acquire(WS->Pipeline.Pinned, F.numValues(), char(0));

  for (unsigned Round = 0; Round < Options.MaxRounds; ++Round) {
    PhaseSpan RoundSpan(Phase::SpillRound);
    ++Out.Rounds;
    Current.emplace(build());
    AllocationProblem &P = *Current;
    if (P.fitsBudgets())
      break; // Every class fits already; nothing to spill this round.

    // allocateProblem decomposes multi-class instances per register class;
    // single-class instances take the historical direct path.
    AllocationResult Result = allocate(P);
    // Pin-aware spill set: never re-spill a pinned value.
    std::vector<char> &Spilled =
        WS->acquire(WS->Pipeline.Spilled, Out.Rewritten.numValues(), char(0));
    unsigned NumSpilled = 0;
    for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
      if (Result.Allocated[V] || (V < Pinned.size() && Pinned[V]))
        continue;
      Spilled[V] = 1;
      Out.TotalSpillCost += P.graph().weight(V);
      ++NumSpilled;
    }
    if (NumSpilled == 0)
      break; // Allocator found nothing (more) to spill.

    // One rewrite covers every class's spills; reload temporaries inherit
    // their value's class (ir/SpillRewriter.cpp).
    SpillRewriteStats Stats = rewriteSpills(Out.Rewritten, Spilled);
    Unchanged = nullptr;
    Out.Spills.NumLoads += Stats.NumLoads;
    Out.Spills.NumStores += Stats.NumStores;
    Out.Spills.NumSlots += Stats.NumSlots;

    // CISC targets absorb single-use reloads into addressing modes, which
    // removes their temporaries before the next round measures pressure.
    if (Options.FoldMemoryOperands && Target.MaxMemOperands > 0) {
      PhaseSpan FoldSpan(Phase::OperandFold);
      Out.LoadsFolded +=
          foldMemoryOperands(Out.Rewritten, Target).LoadsFolded;
    }

    Pinned.resize(Out.Rewritten.numValues(), 0);
    for (VertexId V = 0; V < Spilled.size(); ++V)
      if (Spilled[V])
        Pinned[V] = 1;
    Current.reset(); // Rewritten changed; the problem no longer matches.
  }

  // Final assignment over whatever still lives in registers.
  if (!Current)
    Current.emplace(build());
  AllocationProblem &P = *Current;
  AllocationResult Final = allocate(P);
  Out.FinalMaxLive = P.maxLive();
  bool FinalFits = P.fitsBudgets();

  PhaseSpan AssignSpan(Phase::Assign);
  std::vector<Affinity> Affinities = collectAffinities(Out.Rewritten);
  Out.Regs = Options.AffinityBias
                 ? assignRegistersBiased(P, Final.Allocated, Affinities)
                 : assignRegisters(P, Final.Allocated);
  Out.TotalSpillCost += Final.SpillCost;
  Out.RemainingCopyCost =
      remainingCopyCost(Affinities, Final.Allocated, Out.Regs.RegisterOf);
  Out.Fits = FinalFits || (Final.SpillCost == 0 && Out.Regs.Success);
  Out.Fits = Out.Fits && Out.Regs.Success;
  return Out;
}
