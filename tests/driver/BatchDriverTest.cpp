//===- tests/driver/BatchDriverTest.cpp - Batch driver tests --------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"

#include "alloc/Allocator.h"
#include "core/AllocationProblem.h"
#include "driver/ReportIO.h"
#include "graph/Graph.h"
#include "ir/Dominators.h"
#include "ir/LoopInfo.h"
#include "ir/Parser.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "obs/Trace.h"
#include "service/DiskCache.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

using namespace layra;

namespace {

/// The eembc jobs used by the determinism checks: full suite, two register
/// counts, default pipeline options.
std::vector<BatchJob> eembcJobs() {
  std::vector<BatchJob> Jobs;
  for (unsigned Regs : {4u, 8u}) {
    BatchJob Job;
    Job.SuiteName = "eembc";
    Job.NumRegisters = Regs;
    Jobs.push_back(Job);
  }
  return Jobs;
}

/// A tiny hand-built suite of generated functions (faster than the real
/// suites for cache-focused tests).
Suite tinySuite(unsigned NumFunctions, uint64_t Seed) {
  Suite S;
  S.Name = "tiny";
  SuiteProgram Prog;
  Prog.Name = "prog";
  Rng R(Seed);
  for (unsigned I = 0; I < NumFunctions; ++I) {
    ProgramGenOptions Opt;
    Opt.NumVars = 10;
    Opt.MaxBlocks = 12;
    Function F = generateFunction(R, Opt, "f" + std::to_string(I));
    DominatorTree Dom(F);
    LoopInfo Loops(F, Dom);
    Loops.annotate(F);
    Prog.Functions.push_back(std::move(F));
  }
  S.Programs.push_back(std::move(Prog));
  return S;
}

bool hasPhis(const Function &F) {
  for (const BasicBlock &B : F.blocks())
    if (!B.Instrs.empty() && B.Instrs.front().isPhi())
      return true;
  return false;
}

/// One job per register count in [Lo, Hi] over \p S.
std::vector<BatchJob> sweepJobs(const Suite &S, unsigned Lo, unsigned Hi,
                                const std::string &Allocator = "bfpl",
                                const TargetDesc &Target = ST231,
                                std::vector<ClassRegOverride> ClassRegs = {}) {
  std::vector<BatchJob> Jobs;
  for (unsigned Regs = Lo; Regs <= Hi; ++Regs) {
    BatchJob Job;
    Job.SuiteName = S.Name;
    Job.SuiteData = &S;
    Job.Target = Target;
    Job.NumRegisters = Regs;
    Job.ClassRegs = ClassRegs;
    Job.Options.AllocatorName = Allocator;
    Jobs.push_back(Job);
  }
  return Jobs;
}

/// Runs \p Jobs in one BatchDriver::run, where each function's tasks share
/// its SSA form and round-0 problem, at 1 and 4 threads, and requires every
/// task's outcome to equal a direct runAllocationPipeline on the function's
/// SSA form with no shared problem.
void expectGroupedRunMatchesDirect(const std::vector<BatchJob> &Jobs) {
  std::vector<TaskOutcome> Want;
  for (const BatchJob &Job : Jobs)
    for (const SuiteProgram &Prog : Job.SuiteData->Programs)
      for (const Function &F : Prog.Functions) {
        PipelineResult R = runAllocationPipeline(
            hasPhis(F) ? F : convertToSsa(F).Ssa, Job.Target,
            resolveClassBudgets(Job.Target, Job.NumRegisters, Job.ClassRegs),
            Job.Options);
        TaskOutcome Out;
        Out.SpillCost = R.TotalSpillCost;
        Out.NumLoads = R.Spills.NumLoads;
        Out.NumStores = R.Spills.NumStores;
        Out.LoadsFolded = R.LoadsFolded;
        Out.Rounds = R.Rounds;
        Out.FinalMaxLive = R.FinalMaxLive;
        Out.Fits = R.Fits;
        Want.push_back(Out);
      }
  for (unsigned Threads : {1u, 4u}) {
    BatchDriver Driver(Threads);
    DriverReport Report = Driver.run(Jobs);
    size_t I = 0;
    for (const JobReport &JR : Report.Jobs)
      for (const TaskResult &T : JR.Tasks) {
        ASSERT_LT(I, Want.size());
        const TaskOutcome &W = Want[I++];
        std::string What = JR.Job.SuiteName + " " + T.Function + " regs " +
                           std::to_string(JR.Job.NumRegisters) + " " +
                           JR.Job.Options.AllocatorName + " threads " +
                           std::to_string(Threads);
        EXPECT_EQ(T.Out.SpillCost, W.SpillCost) << What;
        EXPECT_EQ(T.Out.NumLoads, W.NumLoads) << What;
        EXPECT_EQ(T.Out.NumStores, W.NumStores) << What;
        EXPECT_EQ(T.Out.LoadsFolded, W.LoadsFolded) << What;
        EXPECT_EQ(T.Out.Rounds, W.Rounds) << What;
        EXPECT_EQ(T.Out.FinalMaxLive, W.FinalMaxLive) << What;
        EXPECT_EQ(T.Out.Fits, W.Fits) << What;
      }
    EXPECT_EQ(I, Want.size());
  }
}

} // namespace

TEST(BatchDriverTest, SharedRound0ProblemsMatchDirectPipelineRuns) {
  // A register sweep groups each function's tasks.  One run holds eembc
  // under bfpl, under ls (the shared problem carries intervals) and on a
  // target with other spill costs, so no group may take another's
  // problem; then the multi-class suite with a second class budget.  SSA
  // input, which skips conversion, is swept in
  // SolvesFunctionsThatAlreadyHavePhisAsTheyAre.
  Suite Eembc = makeSuite("eembc");
  std::vector<BatchJob> Jobs = sweepJobs(Eembc, 4, 16);
  for (const BatchJob &Job : sweepJobs(Eembc, 4, 16, "ls"))
    Jobs.push_back(Job);
  for (const BatchJob &Job : sweepJobs(Eembc, 4, 8, "bfpl", ARMv7))
    Jobs.push_back(Job);
  expectGroupedRunMatchesDirect(Jobs);
  Suite Mixed = makeSuite("mixed-classes");
  expectGroupedRunMatchesDirect(
      sweepJobs(Mixed, 4, 16, "bfpl", ARMv7_VFP, {{"vfp", 8}}));
}

TEST(BatchDriverTest, EembcResultsAreBitIdenticalAcrossThreadCounts) {
  BatchDriver Serial(1), Parallel(8);
  DriverReport A = Serial.run(eembcJobs());
  DriverReport B = Parallel.run(eembcJobs());

  ASSERT_EQ(A.Jobs.size(), B.Jobs.size());
  EXPECT_EQ(A.Threads, 1u);
  EXPECT_EQ(B.Threads, 8u);

  // Field-level equality of every deterministic quantity.
  for (size_t J = 0; J < A.Jobs.size(); ++J) {
    const JobReport &JA = A.Jobs[J], &JB = B.Jobs[J];
    EXPECT_EQ(JA.TotalSpillCost, JB.TotalSpillCost);
    EXPECT_EQ(JA.TotalLoads, JB.TotalLoads);
    EXPECT_EQ(JA.TotalStores, JB.TotalStores);
    EXPECT_EQ(JA.TotalRounds, JB.TotalRounds);
    EXPECT_EQ(JA.FunctionsFit, JB.FunctionsFit);
    EXPECT_EQ(JA.CacheHits, JB.CacheHits);
    ASSERT_EQ(JA.Tasks.size(), JB.Tasks.size());
    for (size_t T = 0; T < JA.Tasks.size(); ++T) {
      EXPECT_EQ(JA.Tasks[T].Program, JB.Tasks[T].Program);
      EXPECT_EQ(JA.Tasks[T].Function, JB.Tasks[T].Function);
      EXPECT_EQ(JA.Tasks[T].Key, JB.Tasks[T].Key);
      EXPECT_EQ(JA.Tasks[T].CacheHit, JB.Tasks[T].CacheHit);
      EXPECT_EQ(JA.Tasks[T].Out.SpillCost, JB.Tasks[T].Out.SpillCost);
      EXPECT_EQ(JA.Tasks[T].Out.Rounds, JB.Tasks[T].Out.Rounds);
    }
  }

  // The acceptance-criterion form: serialized JSON without timing fields is
  // byte-identical (per-task detail included).
  std::string TextA = driverReportToJson(A, /*IncludeTiming=*/false,
                                         /*IncludeTasks=*/true)
                          .dump();
  std::string TextB = driverReportToJson(B, /*IncludeTiming=*/false,
                                         /*IncludeTasks=*/true)
                          .dump();
  // threads is configuration, not a measurement; normalize it away.
  size_t PosA = TextA.find("\"threads\": 1");
  size_t PosB = TextB.find("\"threads\": 8");
  ASSERT_NE(PosA, std::string::npos);
  ASSERT_NE(PosB, std::string::npos);
  TextA.replace(PosA, 12, "\"threads\": N");
  TextB.replace(PosB, 12, "\"threads\": N");
  EXPECT_EQ(TextA, TextB);
}

TEST(BatchDriverTest, DuplicateJobHitsCacheWithoutChangingTotals) {
  Suite S = tinySuite(6, 99);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;

  BatchDriver Driver(4);
  DriverReport Report = Driver.run({Job, Job});
  ASSERT_EQ(Report.Jobs.size(), 2u);
  const JobReport &First = Report.Jobs[0], &Second = Report.Jobs[1];

  // Second job is served entirely from the cache...
  EXPECT_EQ(Second.CacheHits, 6u);
  for (const TaskResult &T : Second.Tasks)
    EXPECT_TRUE(T.CacheHit);
  // ...without changing any totals.
  EXPECT_EQ(First.TotalSpillCost, Second.TotalSpillCost);
  EXPECT_EQ(First.TotalLoads, Second.TotalLoads);
  EXPECT_EQ(First.TotalStores, Second.TotalStores);
  EXPECT_EQ(First.TotalRounds, Second.TotalRounds);
  // Only the unique instances were solved and memoized.
  EXPECT_EQ(Driver.pipelineCacheCounters().Entries, 6u);
}

TEST(BatchDriverTest, SolvesFunctionsThatAlreadyHavePhisAsTheyAre) {
  // Submitted IR is already SSA.  Running SSA construction on it again
  // would look up each phi operand at the phi's own block, where a
  // back-edge or branch-arm def does not reach, and solve a different
  // program.  Build such input as the server does -- SSA text printed and
  // parsed back -- and require the driver to match the pipeline run on
  // exactly that function, at two register counts, so each function's
  // tasks share its round-0 problem.
  Suite S;
  S.Name = "submitted";
  SuiteProgram Prog;
  Prog.Name = "prog";
  Rng R(0x7373615f696eULL);
  unsigned Phis = 0;
  for (unsigned I = 0; I < 8; ++I) {
    ProgramGenOptions Opt;
    Opt.NumVars = 16;
    Opt.MaxBlocks = 24;
    Opt.LoopProb = 0.4;
    Function F = generateFunction(R, Opt, "f" + std::to_string(I));
    DominatorTree Dom(F);
    LoopInfo Loops(F, Dom);
    Loops.annotate(F);
    SsaConversion Ssa = convertToSsa(F);
    Phis += Ssa.NumPhis;
    ParsedFunction Parsed = parseFunction(Ssa.Ssa.toString());
    ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
    Prog.Functions.push_back(std::move(Parsed.F));
  }
  ASSERT_GT(Phis, 0u);
  S.Programs.push_back(std::move(Prog));
  expectGroupedRunMatchesDirect(sweepJobs(S, 4, 5));
}

TEST(BatchDriverTest, CachePersistsAcrossRuns) {
  Suite S = tinySuite(5, 7);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 3;

  BatchDriver Driver(2);
  DriverReport First = Driver.run({Job});
  EXPECT_EQ(First.Jobs[0].CacheHits, 0u);
  DriverReport Second = Driver.run({Job});
  EXPECT_EQ(Second.Jobs[0].CacheHits, 5u);
  EXPECT_EQ(First.Jobs[0].TotalSpillCost, Second.Jobs[0].TotalSpillCost);
  // A different register count is a different instance: no hits.
  Job.NumRegisters = 5;
  DriverReport Third = Driver.run({Job});
  EXPECT_EQ(Third.Jobs[0].CacheHits, 0u);
}

TEST(BatchDriverTest, HashDistinguishesInstancesButIgnoresNames) {
  Suite S = tinySuite(2, 11);
  const Function &F = S.Programs[0].Functions[0];
  const Function &G = S.Programs[0].Functions[1];

  PipelineOptions Opt;
  const uint64_t HF = hashFunction(F);
  uint64_t Base = hashPipelineTask(HF, ST231, {4}, Opt);
  EXPECT_EQ(Base, hashPipelineTask(HF, ST231, {4}, Opt));
  EXPECT_NE(Base, hashPipelineTask(hashFunction(G), ST231, {4}, Opt));
  EXPECT_NE(Base, hashPipelineTask(HF, ST231, {5}, Opt));
  EXPECT_NE(Base, hashPipelineTask(HF, ARMv7, {4}, Opt));
  PipelineOptions NoFold = Opt;
  NoFold.FoldMemoryOperands = false;
  EXPECT_NE(Base, hashPipelineTask(HF, ST231, {4}, NoFold));

  // Renaming values does not change the structural hash.
  Function Renamed = F;
  for (ValueId V = 0; V < Renamed.numValues(); ++V)
    Renamed.setValueName(V, "renamed" + std::to_string(V));
  EXPECT_EQ(hashFunction(F), hashFunction(Renamed));
}

TEST(BatchDriverTest, SolveProblemsMatchesDirectAllocation) {
  Suite S = tinySuite(4, 21);
  std::vector<NamedProblem> Problems = chordalProblems(S, ST231, {4});
  std::vector<const AllocationProblem *> Ptrs;
  for (const NamedProblem &P : Problems)
    Ptrs.push_back(&P.P);

  BatchDriver Driver(4);
  for (const char *Name : {"bfpl", "gc", "lh"}) {
    std::string Error;
    std::vector<AllocationResult> Batch =
        Driver.solveProblems(Ptrs, Name, Error);
    ASSERT_EQ(Batch.size(), Problems.size());
    for (size_t I = 0; I < Problems.size(); ++I) {
      AllocationResult Direct = makeAllocator(Name)->allocate(Problems[I].P);
      EXPECT_EQ(Batch[I].SpillCost, Direct.SpillCost) << Name;
      EXPECT_EQ(Batch[I].Allocated, Direct.Allocated) << Name;
    }
  }
}

TEST(BatchDriverTest, SolveProblemsReportsUnknownAllocatorWithoutDying) {
  Suite S = tinySuite(2, 41);
  std::vector<NamedProblem> Problems = chordalProblems(S, ST231, {4});
  std::vector<const AllocationProblem *> Ptrs;
  for (const NamedProblem &P : Problems)
    Ptrs.push_back(&P.P);

  BatchDriver Driver(2);
  std::string Error;
  std::vector<AllocationResult> Out =
      Driver.solveProblems(Ptrs, "not-an-allocator", Error);
  EXPECT_TRUE(Out.empty());
  EXPECT_NE(Error.find("unknown allocator"), std::string::npos) << Error;
  EXPECT_NE(Error.find("not-an-allocator"), std::string::npos) << Error;
  // The message enumerates what *would* work.
  EXPECT_NE(Error.find("gc"), std::string::npos) << Error;

  // The same driver is still usable afterwards.
  Error.clear();
  std::vector<AllocationResult> Good =
      Driver.solveProblems(Ptrs, "bfpl", Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Good.size(), Problems.size());
}

TEST(BatchDriverTest, SolveProblemsRejectsIntervalAllocatorsOnGraphOnlyInput) {
  // Problems built straight from a graph carry no interval table; linear
  // scan must be refused up front with a diagnostic, not a process abort
  // from inside the worker pool.
  Graph G({1, 2, 3, 4, 5, 6}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, {2});
  ASSERT_FALSE(P.Intervals.has_value());
  std::vector<const AllocationProblem *> Ptrs{&P};

  BatchDriver Driver(2);
  for (const char *Name : {"ls", "bls"}) {
    std::string Error;
    std::vector<AllocationResult> Out =
        Driver.solveProblems(Ptrs, Name, Error);
    EXPECT_TRUE(Out.empty()) << Name;
    EXPECT_NE(Error.find("requires live intervals"), std::string::npos)
        << Name << ": " << Error;
  }
  // Graph-based allocators remain fine on the same input.
  std::string Error;
  std::vector<AllocationResult> Out =
      Driver.solveProblems(Ptrs, "bfpl", Error);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Out.size(), 1u);
}

TEST(BatchDriverTest, CacheCapacityBoundsEntriesAndCountsEvictions) {
  Suite S = tinySuite(6, 123);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;

  BatchDriver Driver(2);
  Driver.setCacheCapacity(4);
  DriverReport First = Driver.run({Job});
  // Six unique solves flowed through a four-entry cache.
  EXPECT_EQ(Driver.pipelineCacheCounters().Entries, 4u);
  EXPECT_EQ(First.CacheEntries, 4u);
  EXPECT_EQ(First.CacheEvictions, 2u);
  EXPECT_EQ(First.Jobs[0].CacheHits, 0u);
  // Totals are unaffected by the bound: eviction costs re-solves, never
  // correctness.
  BatchDriver Unbounded(2);
  DriverReport Reference = Unbounded.run({Job});
  EXPECT_EQ(First.Jobs[0].TotalSpillCost, Reference.Jobs[0].TotalSpillCost);
  EXPECT_EQ(First.Jobs[0].TotalLoads, Reference.Jobs[0].TotalLoads);

  // Re-running re-solves the evicted two; the cache stays at capacity.
  DriverReport Second = Driver.run({Job});
  EXPECT_EQ(Driver.pipelineCacheCounters().Entries, 4u);
  EXPECT_EQ(Second.Jobs[0].TotalSpillCost, Reference.Jobs[0].TotalSpillCost);

  DriverCacheCounters Counters = Driver.pipelineCacheCounters();
  EXPECT_EQ(Counters.Capacity, 4u);
  EXPECT_EQ(Counters.Entries, 4u);
  EXPECT_GT(Counters.Evictions, 2u);
  EXPECT_GT(Counters.Hits + Counters.Misses, 0u);

  // Shrinking the bound trims immediately.
  Driver.setCacheCapacity(2);
  EXPECT_EQ(Driver.pipelineCacheCounters().Entries, 2u);
}

TEST(BatchDriverTest, RepeatedSolveProblemsCallsMatchDirectAllocation) {
  Suite S = tinySuite(5, 31);
  std::vector<NamedProblem> Problems = chordalProblems(S, ST231, {4});
  std::vector<const AllocationProblem *> Ptrs;
  for (const NamedProblem &P : Problems)
    Ptrs.push_back(&P.P);
  // A repeated input gets its own result, equal to the first one's.
  Ptrs.push_back(Ptrs.front());

  BatchDriver Driver(2);
  std::string Error;
  std::vector<AllocationResult> Batch =
      Driver.solveProblems(Ptrs, "bfpl", Error);
  std::vector<AllocationResult> Again =
      Driver.solveProblems(Ptrs, "bfpl", Error);
  ASSERT_EQ(Batch.size(), Ptrs.size());
  ASSERT_EQ(Again.size(), Ptrs.size());
  for (size_t I = 0; I < Ptrs.size(); ++I) {
    AllocationResult Direct = makeAllocator("bfpl")->allocate(*Ptrs[I]);
    EXPECT_EQ(Batch[I].SpillCost, Direct.SpillCost);
    EXPECT_EQ(Batch[I].Allocated, Direct.Allocated);
    EXPECT_EQ(Again[I].SpillCost, Direct.SpillCost);
    EXPECT_EQ(Again[I].Allocated, Direct.Allocated);
  }
}

TEST(BatchDriverTest, TransparentReportsAreIdenticalHoweverWarmTheCache) {
  Suite S = tinySuite(6, 77);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;

  auto Serialize = [](const DriverReport &R) {
    return driverReportToJson(R, /*IncludeTiming=*/false,
                              /*IncludeTasks=*/true)
        .dump();
  };

  // Fresh driver, non-transparent: the baseline a one-shot run reports.
  BatchDriver Fresh(2);
  std::string Baseline = Serialize(Fresh.run({Job}));

  // Warm driver in transparent mode: the same bytes, every time.
  BatchDriver Warm(2);
  std::string First = Serialize(Warm.run({Job}, /*CacheTransparent=*/true));
  std::string Second = Serialize(Warm.run({Job}, /*CacheTransparent=*/true));
  EXPECT_EQ(First, Baseline);
  EXPECT_EQ(Second, Baseline);

  // Without transparency the second run visibly hits the cache instead.
  BatchDriver Plain(2);
  Plain.run({Job});
  std::string PlainSecond = Serialize(Plain.run({Job}));
  EXPECT_NE(PlainSecond, Baseline);

  // Transparency also hides the capacity bound (a fresh reference driver
  // is unbounded), while the driver's real cache stays bounded.
  BatchDriver Bounded(2);
  Bounded.setCacheCapacity(2);
  std::string BoundedFirst =
      Serialize(Bounded.run({Job}, /*CacheTransparent=*/true));
  std::string BoundedSecond =
      Serialize(Bounded.run({Job}, /*CacheTransparent=*/true));
  EXPECT_EQ(BoundedFirst, Baseline);
  EXPECT_EQ(BoundedSecond, Baseline);
  EXPECT_EQ(Bounded.pipelineCacheCounters().Entries, 2u);
}

TEST(BatchDriverTest, ReportSerializersProduceParseableShapes) {
  Suite S = tinySuite(3, 33);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;
  BatchDriver Driver(2);
  DriverReport Report = Driver.run({Job});

  std::string Json = driverReportToJson(Report).dump();
  EXPECT_NE(Json.find("\"schema\": \"layra-driver-report/v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"total_spill_cost\""), std::string::npos);
  EXPECT_NE(Json.find("\"wall_ms\""), std::string::npos);
  std::string NoTiming =
      driverReportToJson(Report, /*IncludeTiming=*/false).dump();
  EXPECT_EQ(NoTiming.find("wall_ms"), std::string::npos);

  char Buffer[16384];
  std::FILE *Mem = fmemopen(Buffer, sizeof(Buffer), "w");
  writeDriverReportCsv(Mem, Report);
  std::fclose(Mem);
  std::string Csv = Buffer;
  EXPECT_EQ(Csv.compare(0, 5, "suite"), 0);
  // suite,target,regs,allocator,affinity,fold,max_rounds,functions,...
  EXPECT_NE(Csv.find("tiny,st231,4,bfpl,1,1,4,3"), std::string::npos);

  Mem = fmemopen(Buffer, sizeof(Buffer), "w");
  writeDriverTasksCsv(Mem, Report);
  std::fclose(Mem);
  std::string TasksCsv = Buffer;
  // Header plus one row per function.
  size_t Lines = 0;
  for (char C : TasksCsv)
    Lines += C == '\n' ? 1 : 0;
  EXPECT_EQ(Lines, 1u + 3u);
}

TEST(BatchDriverTest, PhaseAccountingFollowsTheCallingThread) {
  // Two threads run drivers under their own ThreadPhaseAccounting scope
  // (as a traced server request does) while a third runs plain calls, all
  // at once, with accounting off globally.  No plain report may gain a
  // phase breakdown, and every scoped report must account each task it
  // solved, though the pool threads that solved them carry no scope.
  ASSERT_FALSE(obs::phaseAccountingEnabled());
  Suite S = tinySuite(8, 41);
  auto JobAt = [&](unsigned Regs) {
    BatchJob Job;
    Job.SuiteName = "tiny";
    Job.SuiteData = &S;
    Job.NumRegisters = Regs;
    return Job;
  };
  std::atomic<unsigned> ScopedRunning{2};
  auto Scoped = [&](unsigned FirstRegs) {
    obs::ThreadPhaseAccounting Accounting(true);
    BatchDriver Driver(2);
    for (unsigned Call = 0; Call < 12; ++Call) {
      DriverReport R = Driver.run({JobAt(FirstRegs + Call)});
      // No ASSERT on this thread: the loop must reach the decrement.
      EXPECT_TRUE(R.Jobs[0].Phases.has_value()) << "call " << Call;
      if (!R.Jobs[0].Phases)
        continue;
      uint64_t Solved = 0;
      for (const TaskResult &T : R.Jobs[0].Tasks)
        Solved += T.CacheHit ? 0 : 1;
      EXPECT_EQ(R.Jobs[0].Phases->Count[unsigned(Phase::Pipeline)], Solved)
          << "call " << Call;
    }
    --ScopedRunning;
  };
  std::thread A(Scoped, 2), B(Scoped, 3);
  BatchDriver Plain(2);
  unsigned PlainCalls = 0, WithPhases = 0;
  for (unsigned I = 0; ScopedRunning > 0 || PlainCalls < 4; ++I) {
    DriverReport R = Plain.run({JobAt(2 + I % 14)});
    ++PlainCalls;
    WithPhases += R.Jobs[0].Phases ? 1 : 0;
  }
  A.join();
  B.join();
  EXPECT_EQ(WithPhases, 0u) << "of " << PlainCalls << " plain calls";
  EXPECT_FALSE(obs::phaseAccountingEnabled());
}

TEST(BatchDriverTest, DiskStoreIsReadOncePerDistinctKey) {
  // Two identical jobs: six tasks over three distinct keys.  A cold run
  // asks the store about each key once and writes each once; a warm run
  // in a fresh driver finds each once.
  char Template[] = "/tmp/layra-driver-test-XXXXXX";
  const char *Made = mkdtemp(Template);
  ASSERT_NE(Made, nullptr);
  const std::string Dir = Made;
  struct RemoveOnExit {
    std::string Path;
    ~RemoveOnExit() { (void)std::system(("rm -rf '" + Path + "'").c_str()); }
  } Cleanup{Dir};
  Suite S = tinySuite(3, 5);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;
  {
    DiskCache Disk(Dir);
    ASSERT_TRUE(Disk.valid()) << Disk.error();
    BatchDriver Cold(2);
    Cold.setOutcomeStore(&Disk);
    ASSERT_EQ(Cold.run({Job, Job}).CacheHits, 3u);
    DiskCacheStats Stats = Disk.stats();
    EXPECT_EQ(Stats.Misses, 3u);
    EXPECT_EQ(Stats.Writes, 3u);
    EXPECT_EQ(Stats.Entries, 3u);
    EXPECT_EQ(Stats.Hits, 0u);
  }
  {
    DiskCache Disk(Dir);
    BatchDriver Warm(2);
    Warm.setOutcomeStore(&Disk);
    ASSERT_EQ(Warm.run({Job, Job}).CacheHits, 6u);
    DiskCacheStats Stats = Disk.stats();
    EXPECT_EQ(Stats.Hits, 3u);
    EXPECT_EQ(Stats.Misses, 0u);
    EXPECT_EQ(Stats.Writes, 0u);
  }
}

TEST(BatchDriverTest, OneRunClassifiesMemoryHitsStoreHitsAndMissesOnce) {
  // Three one-function suites: A is in the bounded memory cache, B only in
  // the store, C nowhere.  One run meets each twice.
  Suite Base = tinySuite(3, 17);
  std::vector<Suite> Singles(3);
  for (size_t I = 0; I < 3; ++I) {
    Singles[I].Name = "single" + std::to_string(I);
    SuiteProgram Prog;
    Prog.Name = "prog";
    Prog.Functions.push_back(Base.Programs[0].Functions[I]);
    Singles[I].Programs.push_back(std::move(Prog));
  }
  auto JobOf = [&](size_t I) {
    BatchJob Job;
    Job.SuiteName = Singles[I].Name;
    Job.SuiteData = &Singles[I];
    Job.NumRegisters = 3;
    return Job;
  };
  const BatchJob A = JobOf(0), B = JobOf(1), C = JobOf(2);
  const std::vector<BatchJob> Batch{A, B, C, A, B, C};
  auto Serialize = [](const DriverReport &R) {
    return driverReportToJson(R, /*IncludeTiming=*/false,
                              /*IncludeTasks=*/true)
        .dump();
  };
  BatchDriver Fresh(2);
  const std::string FreshBytes = Serialize(Fresh.run(Batch));

  for (bool Transparent : {false, true}) {
    SCOPED_TRACE(Transparent ? "transparent" : "plain");
    char Template[] = "/tmp/layra-driver-test-XXXXXX";
    const char *Made = mkdtemp(Template);
    ASSERT_NE(Made, nullptr);
    struct RemoveOnExit {
      std::string Path;
      ~RemoveOnExit() { (void)std::system(("rm -rf '" + Path + "'").c_str()); }
    } Cleanup{Made};
    DiskCache Disk(Made);
    ASSERT_TRUE(Disk.valid()) << Disk.error();
    {
      BatchDriver Seeder(1);
      Seeder.setOutcomeStore(&Disk);
      Seeder.run({B});
    }
    BatchDriver Driver(2);
    Driver.setCacheCapacity(2);
    Driver.run({A});
    Driver.setOutcomeStore(&Disk);
    const DiskCacheStats Before = Disk.stats();

    DriverReport Report = Driver.run(Batch, Transparent);

    // Only the keys the memory cache missed reach the store, once each.
    const DiskCacheStats After = Disk.stats();
    EXPECT_EQ(After.Hits - Before.Hits, 1u);
    EXPECT_EQ(After.Misses - Before.Misses, 1u);
    EXPECT_EQ(After.Writes - Before.Writes, 1u);

    ASSERT_EQ(Report.Jobs.size(), 6u);
    const bool WantHit[6] = {!Transparent, !Transparent, false,
                             true,         true,         true};
    for (size_t J = 0; J < 6; ++J) {
      ASSERT_EQ(Report.Jobs[J].Tasks.size(), 1u);
      EXPECT_EQ(Report.Jobs[J].Tasks[0].CacheHit, WantHit[J]) << "job " << J;
      EXPECT_EQ(Report.Jobs[J].CacheHits, WantHit[J] ? 1u : 0u) << "job " << J;
    }
    EXPECT_EQ(Report.CacheHits, Transparent ? 3u : 5u);
    // The memory cache held A; re-seating B and storing C evicted A.
    EXPECT_EQ(Report.CacheEntries, Transparent ? 3u : 2u);
    EXPECT_EQ(Report.CacheEvictions, Transparent ? 0u : 1u);
    if (Transparent) {
      EXPECT_EQ(Serialize(Report), FreshBytes);
    }

    DriverCacheCounters Counters = Driver.pipelineCacheCounters();
    EXPECT_EQ(Counters.Hits, 5u);
    EXPECT_EQ(Counters.Misses, 2u); // A's warm-up solve and C's.
    EXPECT_EQ(Counters.Entries, 2u);
    EXPECT_EQ(Counters.Evictions, 1u);

    // B was re-seated before C's solve was committed, so C is the most
    // recently used entry and the only one a bound of 1 keeps.
    Driver.setOutcomeStore(nullptr);
    Driver.setCacheCapacity(1);
    EXPECT_TRUE(Driver.run({C}).Jobs[0].Tasks[0].CacheHit);
    EXPECT_FALSE(Driver.run({B}).Jobs[0].Tasks[0].CacheHit);
  }
}
