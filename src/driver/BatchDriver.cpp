//===- driver/BatchDriver.cpp - Parallel batch allocation ------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"

#include "core/ProblemBuilder.h"
#include "ir/SsaBuilder.h"
#include "support/Compiler.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <optional>
#include <tuple>
#include <unordered_map>

using namespace layra;

//===----------------------------------------------------------------------===//
// Content hashing
//===----------------------------------------------------------------------===//

namespace {

/// Mixes \p Value into running hash \p H (SplitMix64 avalanche; same
/// primitive the suite generators use for seed derivation).
uint64_t mix(uint64_t H, uint64_t Value) {
  uint64_t State = H ^ (Value + 0x9e3779b97f4a7c15ULL);
  return splitMix64(State);
}

uint64_t mixString(uint64_t H, const std::string &S) {
  H = mix(H, S.size());
  for (unsigned char C : S)
    H = mix(H, C);
  return H;
}

bool hasPhis(const Function &F) {
  for (const BasicBlock &B : F.blocks())
    if (!B.Instrs.empty() && B.Instrs.front().isPhi())
      return true;
  return false;
}

double toMs(std::chrono::steady_clock::duration D) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             D)
      .count();
}

} // namespace

uint64_t layra::hashFunction(const Function &F) {
  uint64_t H = 0x6c617972612d6866ULL; // "layra-hf"
  H = mix(H, F.numValues());
  H = mix(H, F.numBlocks());
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &Block = F.block(B);
    H = mix(H, Block.LoopDepth);
    H = mix(H, static_cast<uint64_t>(Block.Frequency));
    H = mix(H, Block.Preds.size());
    for (BlockId P : Block.Preds)
      H = mix(H, P);
    H = mix(H, Block.Succs.size());
    for (BlockId S : Block.Succs)
      H = mix(H, S);
    H = mix(H, Block.Instrs.size());
    for (const Instruction &I : Block.Instrs) {
      H = mix(H, static_cast<uint64_t>(I.Op));
      H = mix(H, I.Defs.size());
      for (ValueId V : I.Defs)
        H = mix(H, V);
      H = mix(H, I.Uses.size());
      for (ValueId V : I.Uses)
        H = mix(H, V);
      H = mix(H, static_cast<uint64_t>(static_cast<int64_t>(I.SpillSlot)));
      H = mix(H, I.MemUseSlots.size());
      for (int Slot : I.MemUseSlots)
        H = mix(H, static_cast<uint64_t>(static_cast<int64_t>(Slot)));
    }
  }
  // Register classes partition the values and change every layer's view of
  // the function.  Mixed only when present so every historical
  // (single-class) key -- including the ones committed in golden reports --
  // is preserved bit-for-bit.
  if (F.maxValueClass() > 0) {
    H = mix(H, 0x636c6173736573ULL); // "classes"
    for (ValueId V = 0; V < F.numValues(); ++V)
      H = mix(H, F.valueClass(V));
  }
  return H;
}

uint64_t layra::hashPipelineTask(uint64_t FunctionHash,
                                 const TargetDesc &Target,
                                 const std::vector<unsigned> &Budgets,
                                 const PipelineOptions &Options) {
  uint64_t H = FunctionHash;
  // The target enters the pipeline only through its cost model, its
  // addressing-mode geometry and its class budgets; the name is cosmetic.
  H = mix(H, static_cast<uint64_t>(Target.LoadCost));
  H = mix(H, static_cast<uint64_t>(Target.StoreCost));
  H = mix(H, Target.MaxMemOperands);
  H = mix(H, static_cast<uint64_t>(Target.MemOperandCost));
  H = mix(H, Budgets.empty() ? 0 : Budgets[0]);
  H = mixString(H, Options.AllocatorName);
  H = mix(H, Options.AffinityBias ? 1 : 0);
  H = mix(H, Options.MaxRounds);
  H = mix(H, Options.FoldMemoryOperands ? 1 : 0);
  // Extra class budgets are mixed only when present, so a single-class key
  // depends on class 0 alone (task keys are part of the report bytes).
  if (Budgets.size() > 1) {
    H = mix(H, Budgets.size());
    for (size_t C = 1; C < Budgets.size(); ++C)
      H = mix(H, Budgets[C]);
  }
  return H;
}

uint64_t layra::hashProblem(const AllocationProblem &P) {
  uint64_t H = 0x6c617972612d6870ULL; // "layra-hp"
  H = mix(H, P.Budgets[0]);
  // Multi-class identity (extra budgets, vertex classes) is mixed only
  // when present: single-class instances keep their historical keys.
  if (P.multiClass()) {
    H = mix(H, P.Budgets.size());
    for (unsigned C = 1; C < P.Budgets.size(); ++C)
      H = mix(H, P.Budgets[C]);
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      H = mix(H, P.classOf(V));
  }
  H = mix(H, P.Chordal ? 1 : 0);
  H = mix(H, P.graph().numVertices());
  for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
    H = mix(H, static_cast<uint64_t>(P.graph().weight(V)));
    NeighborRange Neighbors = P.graph().neighbors(V);
    H = mix(H, Neighbors.size());
    for (VertexId N : Neighbors)
      H = mix(H, N);
  }
  H = mix(H, P.Cliques.numCliques());
  for (unsigned K = 0; K < P.Cliques.numCliques(); ++K) {
    NeighborRange Members = P.Cliques.clique(K);
    H = mix(H, Members.size());
    for (VertexId V : Members)
      H = mix(H, V);
  }
  // Linear-scan allocators consume the interval layout, which is not
  // derivable from the graph, so it is part of the instance identity.
  if (P.Intervals) {
    H = mix(H, P.Intervals->NumPoints);
    H = mix(H, P.Intervals->Intervals.size());
    for (const LiveInterval &I : P.Intervals->Intervals) {
      H = mix(H, I.V);
      H = mix(H, I.Start);
      H = mix(H, I.End);
      H = mix(H, static_cast<uint64_t>(I.Cost));
    }
  } else {
    H = mix(H, 0xdeadULL);
  }
  return H;
}

//===----------------------------------------------------------------------===//
// BatchDriver
//===----------------------------------------------------------------------===//

BatchDriver::BatchDriver(unsigned Threads) : Pool(Threads) {
  Workspaces.reserve(Pool.numThreads());
  for (unsigned W = 0; W < Pool.numThreads(); ++W)
    Workspaces.push_back(std::make_unique<SolverWorkspace>());
}

void BatchDriver::setCacheCapacity(size_t MaxEntries) {
  PipelineCache.setCapacity(MaxEntries);
}

DriverCacheCounters BatchDriver::pipelineCacheCounters() const {
  DriverCacheCounters C;
  C.Hits = PipelineHits;
  C.Misses = PipelineMisses;
  C.Evictions = PipelineCache.evictions();
  C.Entries = PipelineCache.size();
  C.Capacity = PipelineCache.capacity();
  return C;
}

DriverReport BatchDriver::run(const std::vector<BatchJob> &Jobs,
                              bool CacheTransparent) {
  auto BatchStart = std::chrono::steady_clock::now();

  // Accounting as the caller has it, sampled once so a mid-run flip cannot
  // leave half-collected breakdowns; each task runs under it below.
  const bool Accounting = obs::phaseAccountingEnabled();

  DriverReport Report;
  Report.Threads = Pool.numThreads();

  // Phase 1 (serial): generate each distinct named suite once.
  std::map<std::string, Suite> GeneratedSuites;
  for (const BatchJob &Job : Jobs)
    if (!Job.SuiteData && !GeneratedSuites.count(Job.SuiteName))
      GeneratedSuites.emplace(Job.SuiteName, makeSuite(Job.SuiteName));

  // Phase 2 (serial): expand jobs into tasks and classify hit/miss against
  // the persistent cache plus this batch's first occurrences.  Doing this
  // before any parallel work keeps the classification thread-independent.
  // Outcomes of persistent hits are copied out *now*: by the time phase 4
  // assembles results, a bounded cache may already have evicted them.
  struct PendingTask {
    size_t JobIndex;
    const Function *F;
    const std::string *Program;
    uint64_t Key;
    bool PersistentHit; ///< The memory cache or the store had the key.
    bool FromStore;     ///< The store had it and the memory cache did not.
    bool BatchDup;      ///< An earlier task of this run has the same key.
    TaskOutcome CachedOut; ///< Meaningful only when PersistentHit.
    size_t UniqueIndex; ///< Slot in the unique-solve arrays.
  };
  std::vector<PendingTask> Pending;
  // The one repeat index: each key met this run -> its first task in
  // Pending.  Phase 2 never inserts into the memory cache, so a repeat
  // misses it exactly when its first task did, and then shares that
  // task's classification; the store is therefore asked once per key.
  std::unordered_map<uint64_t, size_t> FirstOf;
  std::vector<size_t> UniqueToPending;

  // Function pointers are stable for the duration of run() (suites live in
  // GeneratedSuites or in the caller's SuiteData), so each function's IR is
  // hashed once even when a sweep references it from many jobs.
  std::unordered_map<const Function *, uint64_t> FunctionHashes;
  auto HashOf = [&](const Function &F) {
    auto It = FunctionHashes.find(&F);
    if (It != FunctionHashes.end())
      return It->second;
    uint64_t H = hashFunction(F);
    FunctionHashes.emplace(&F, H);
    return H;
  };

  Report.Jobs.resize(Jobs.size());
  // Per-class budgets of each job, resolved once (class 0 = NumRegisters,
  // others architectural, --class-regs overrides applied), and whether its
  // allocator reads live intervals.
  std::vector<std::vector<unsigned>> JobBudgets(Jobs.size());
  std::vector<char> JobIntervals(Jobs.size(), 0);
  for (size_t JI = 0; JI < Jobs.size(); ++JI) {
    const BatchJob &Job = Jobs[JI];
    if (std::unique_ptr<Allocator> A = makeAllocator(Job.Options.AllocatorName))
      JobIntervals[JI] = A->requiresIntervals();
    const Suite &S =
        Job.SuiteData ? *Job.SuiteData : GeneratedSuites.at(Job.SuiteName);
    // The report must stay valid after the caller's Suite dies: snapshot
    // the resolved label and drop the borrowed pointer.
    Report.Jobs[JI].Job = Job;
    Report.Jobs[JI].Job.SuiteData = nullptr;
    if (Report.Jobs[JI].Job.SuiteName.empty())
      Report.Jobs[JI].Job.SuiteName = S.Name;
    std::string BudgetError;
    JobBudgets[JI] = resolveClassBudgets(Job.Target, Job.NumRegisters,
                                         Job.ClassRegs, &BudgetError);
    if (JobBudgets[JI].empty())
      layraFatalError("invalid class-regs override (front ends validate "
                      "before building jobs)");
    Report.Jobs[JI].Job.Budgets = JobBudgets[JI];
    for (const SuiteProgram &Prog : S.Programs)
      for (const Function &F : Prog.Functions) {
        PendingTask T;
        T.JobIndex = JI;
        T.F = &F;
        T.Program = &Prog.Name;
        // Instances are equated purely by 64-bit content hash: at n tasks
        // the collision odds are ~n^2/2^65 (~1e-13 for n = 100k), which we
        // accept rather than storing canonical instances for re-check.
        T.Key = hashPipelineTask(HashOf(F), Job.Target, JobBudgets[JI],
                                 Job.Options);
        auto First = FirstOf.emplace(T.Key, Pending.size());
        T.BatchDup = !First.second;
        T.FromStore = false;
        T.UniqueIndex = ~size_t(0);
        // Every task calls find(): it marks the entry most recently used,
        // which orders later evictions.  Lookups never insert, so no
        // eviction can happen before the phase-4 commit.
        if (const TaskOutcome *Hit = PipelineCache.find(T.Key)) {
          T.PersistentHit = true;
          T.CachedOut = *Hit;
        } else if (T.BatchDup) {
          const PendingTask &Twin = Pending[First.first->second];
          T.PersistentHit = Twin.PersistentHit;
          T.FromStore = Twin.FromStore;
          T.CachedOut = Twin.CachedOut;
          T.UniqueIndex = Twin.UniqueIndex;
        } else if (OutcomeStore && OutcomeStore->lookup(T.Key, T.CachedOut)) {
          // A store hit is a persistent hit the memory cache merely
          // forgot (or never saw -- a fresh process warm-starting from
          // disk); phase 4 re-seats it in the memory cache.
          T.PersistentHit = true;
          T.FromStore = true;
        } else {
          T.PersistentHit = false;
          T.UniqueIndex = UniqueToPending.size();
          UniqueToPending.push_back(Pending.size());
        }
        if (T.PersistentHit || T.BatchDup)
          ++PipelineHits;
        else
          ++PipelineMisses;
        Pending.push_back(T);
      }
  }

  // Group the unique instances by what their round 0 depends on besides
  // the budgets: the function, the target's load/store costs and whether
  // the allocator reads intervals.  The solve order is group by group
  // (groups by first occurrence, tasks in expansion order), so a pool
  // slot's consecutive tasks mostly share a group.
  std::map<std::tuple<const Function *, Weight, Weight, bool>, size_t>
      GroupIds;
  std::vector<size_t> GroupOf(UniqueToPending.size()), GroupSize;
  for (size_t I = 0; I < UniqueToPending.size(); ++I) {
    const PendingTask &T = Pending[UniqueToPending[I]];
    const TargetDesc &Target = Jobs[T.JobIndex].Target;
    auto Known = GroupIds.emplace(
        std::make_tuple(T.F, Target.LoadCost, Target.StoreCost,
                        JobIntervals[T.JobIndex] != 0),
        GroupSize.size());
    if (Known.second)
      GroupSize.push_back(0);
    GroupOf[I] = Known.first->second;
    ++GroupSize[GroupOf[I]];
  }
  std::vector<size_t> SolveOrder(UniqueToPending.size());
  std::iota(SolveOrder.begin(), SolveOrder.end(), size_t(0));
  std::stable_sort(SolveOrder.begin(), SolveOrder.end(),
                   [&](size_t A, size_t B) { return GroupOf[A] < GroupOf[B]; });

  // Each pool slot remembers the SSA form and round-0 problem of the last
  // group of two or more tasks it met; the group's next task on that slot
  // starts round 0 from the shared problem instead of converting and
  // building again.  A slot runs one task at a time, so its memo needs no
  // lock; one group per slot bounds the shared problems alive to the pool
  // width, and none outlives run().
  struct SlotMemo {
    size_t Group = ~size_t(0);
    std::optional<SsaConversion> Ssa;
    std::optional<AllocationProblem> Round0;
  };
  std::vector<SlotMemo> Memo(Pool.numThreads());

  // Phase 3 (parallel): solve each unique instance once.  Every worker
  // writes only its own slot; the library itself is deterministic, and a
  // workspace carries only buffer capacity, never state, so slot-local
  // workspace reuse cannot leak one task's results into another's.  A
  // shared round-0 problem equals the one the task would build.
  std::vector<TaskOutcome> Outcomes(UniqueToPending.size());
  std::vector<double> SolveMs(UniqueToPending.size(), 0);
  std::vector<PhaseTotals> TaskPhases(Accounting ? UniqueToPending.size()
                                                 : 0);
  Pool.parallelForWorker(SolveOrder.size(), [&](size_t Pos, unsigned Slot) {
    size_t I = SolveOrder[Pos];
    const PendingTask &T = Pending[UniqueToPending[I]];
    const BatchJob &Job = Jobs[T.JobIndex];
    const std::vector<unsigned> &Budgets = JobBudgets[T.JobIndex];
    SolverWorkspace *WS = Workspaces[Slot].get();
    obs::ThreadPhaseAccounting CallerAccounting(Accounting);
    // Tasks run serially on a worker, so the thread-local phase totals
    // delta across this task is exactly this task's breakdown.  The task
    // that converts and builds for its group is charged for that work.
    PhaseTotals Before;
    if (Accounting)
      Before = obs::threadPhaseTotals();
    auto Start = std::chrono::steady_clock::now();
    SlotMemo Single; // A one-task group keeps nothing for later tasks.
    SlotMemo &M = GroupSize[GroupOf[I]] > 1 ? Memo[Slot] : Single;
    if (M.Group != GroupOf[I]) {
      M = SlotMemo();
      M.Group = GroupOf[I];
      // A function that already has phis is SSA (submit_ir input, which
      // the server checks is strict) and is solved as it is; only
      // phi-free input goes through SSA construction.
      if (!hasPhis(*T.F))
        M.Ssa.emplace(convertToSsa(*T.F));
      if (&M != &Single)
        M.Round0.emplace(buildSsaProblem(M.Ssa ? M.Ssa->Ssa : *T.F,
                                         Job.Target, Budgets, WS,
                                         JobIntervals[T.JobIndex] != 0));
    }
    PipelineResult R = runAllocationPipeline(
        M.Ssa ? M.Ssa->Ssa : *T.F, Job.Target, Budgets, Job.Options, WS,
        M.Round0 ? &*M.Round0 : nullptr);
    if (Accounting) {
      const PhaseTotals &After = obs::threadPhaseTotals();
      for (unsigned P = 0; P < kNumPhases; ++P) {
        TaskPhases[I].Ms[P] = After.Ms[P] - Before.Ms[P];
        TaskPhases[I].Count[P] = After.Count[P] - Before.Count[P];
      }
    }
    TaskOutcome &Out = Outcomes[I];
    Out.SpillCost = R.TotalSpillCost;
    Out.NumLoads = R.Spills.NumLoads;
    Out.NumStores = R.Spills.NumStores;
    Out.LoadsFolded = R.LoadsFolded;
    Out.Rounds = R.Rounds;
    Out.FinalMaxLive = R.FinalMaxLive;
    Out.Fits = R.Fits;
    SolveMs[I] = toMs(std::chrono::steady_clock::now() - Start);
  });

  // Phase 4 (serial): commit outcomes to the cache and assemble the
  // reports in expansion order.  Results are read from the phase-2/3
  // snapshots, never from the cache, so a small capacity bound can evict
  // entries this very batch produced without corrupting the report.
  uint64_t EvictionsBefore = PipelineCache.evictions();
  // Store hits re-enter the memory cache first (first occurrences in
  // expansion order, the order the store was read in), then this run's
  // solves; both flow through the same serial insert path so a bounded
  // capacity evicts deterministically.  Newly solved outcomes also flow
  // down into the persistent store.
  for (const PendingTask &T : Pending)
    if (T.FromStore && !T.BatchDup)
      PipelineCache.insert(T.Key, T.CachedOut);
  for (size_t I = 0; I < UniqueToPending.size(); ++I) {
    PipelineCache.insert(Pending[UniqueToPending[I]].Key, Outcomes[I]);
    if (OutcomeStore)
      OutcomeStore->store(Pending[UniqueToPending[I]].Key, Outcomes[I]);
  }

  std::vector<std::vector<double>> JobSolveMs(Jobs.size());
  if (Accounting)
    for (JobReport &JR : Report.Jobs)
      JR.Phases.emplace();
  for (const PendingTask &T : Pending) {
    JobReport &JR = Report.Jobs[T.JobIndex];
    // Phase breakdowns, like WallMs, cover only the tasks actually solved
    // in this run (cache hits and batch twins cost no solver time).
    if (Accounting && !T.PersistentHit && !T.BatchDup)
      for (unsigned P = 0; P < kNumPhases; ++P) {
        JR.Phases->Ms[P] += TaskPhases[T.UniqueIndex].Ms[P];
        JR.Phases->Count[P] += TaskPhases[T.UniqueIndex].Count[P];
      }
    TaskResult Result;
    Result.Program = *T.Program;
    Result.Function = T.F->name();
    Result.Key = T.Key;
    // A transparent report describes what a fresh driver would have said:
    // only duplicates *within* this run count as hits.
    Result.CacheHit =
        CacheTransparent ? T.BatchDup : (T.PersistentHit || T.BatchDup);
    Result.Out = T.PersistentHit ? T.CachedOut : Outcomes[T.UniqueIndex];
    if (!T.PersistentHit && !T.BatchDup) {
      Result.WallMs = SolveMs[T.UniqueIndex];
      JobSolveMs[T.JobIndex].push_back(Result.WallMs);
    }
    JR.TotalSpillCost += Result.Out.SpillCost;
    JR.TotalLoads += Result.Out.NumLoads;
    JR.TotalStores += Result.Out.NumStores;
    JR.TotalFolded += Result.Out.LoadsFolded;
    JR.TotalRounds += Result.Out.Rounds;
    JR.FunctionsFit += Result.Out.Fits ? 1 : 0;
    JR.CacheHits += Result.CacheHit ? 1 : 0;
    JR.WallMsTotal += Result.WallMs;
    JR.Tasks.push_back(std::move(Result));
  }
  for (size_t JI = 0; JI < Jobs.size(); ++JI) {
    SampleSummary Summary = summarize(std::move(JobSolveMs[JI]));
    Report.Jobs[JI].WallMsP50 = Summary.Median;
    Report.Jobs[JI].WallMsP95 = Summary.P95;
    Report.Jobs[JI].WallMsMax = Summary.Max;
    Report.CacheHits += Report.Jobs[JI].CacheHits;
  }
  // Transparent mode reports the cache a fresh unbounded driver would end
  // up with: one entry per distinct key, nothing evicted.
  Report.CacheEntries =
      CacheTransparent ? FirstOf.size() : PipelineCache.size();
  Report.CacheEvictions =
      CacheTransparent ? 0 : PipelineCache.evictions() - EvictionsBefore;
  Report.WallMs = toMs(std::chrono::steady_clock::now() - BatchStart);
  return Report;
}

std::vector<AllocationResult>
BatchDriver::solveProblems(const std::vector<const AllocationProblem *> &Problems,
                           const std::string &AllocatorName,
                           std::string &Error) {
  // Validate the allocator name and allocator-vs-problem compatibility up
  // front, on the calling thread: a bad name or an interval-consuming
  // allocator handed a graph-only instance must surface as a per-call
  // error, never as a layraFatalError inside a pool worker.
  Error.clear();
  std::unique_ptr<Allocator> Probe = makeAllocator(AllocatorName);
  if (!Probe) {
    std::string Known;
    for (const std::string &N : allAllocatorNames())
      Known += " " + N;
    Error = "unknown allocator '" + AllocatorName + "' (known:" + Known + ")";
    return {};
  }
  if (Probe->requiresIntervals())
    for (size_t I = 0; I < Problems.size(); ++I)
      if (!Problems[I]->Intervals) {
        Error = "allocator '" + AllocatorName +
                "' requires live intervals, but problem #" +
                std::to_string(I) +
                " is graph-only (no interval table); pick a graph-based "
                "allocator or an interval-bearing suite";
        return {};
      }

  std::vector<AllocationResult> Results(Problems.size());
  Pool.parallelForWorker(Problems.size(), [&](size_t I, unsigned Slot) {
    // allocateProblem: single-class problems take the direct path,
    // multi-class ones the exact per-class decomposition.
    Results[I] = makeAllocator(AllocatorName)
                     ->allocateProblem(*Problems[I], Workspaces[Slot].get());
  });
  return Results;
}
