//===- BatchWorkloads.cpp - The sweep and huge workloads -------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// Both workloads compile a fixed set of functions through BatchDriver::run
// with a fresh driver per pass, so no pass hits the cache; the seed
// permutes task order only, which keeps the exact metrics (spill cost,
// spill ops, fit fraction) identical on every seed.
//
//  - sweep: eembc + spec2000int at 4..16 registers on st231, on nproc pool
//    threads: the paper's evaluation shape, thousands of small tasks.
//  - huge: eight generated functions of about 1k to 12k SSA values at 8
//    and 16 registers, on nproc independent single-threaded drivers, so
//    the largest function's time is not a matter of which pool worker
//    picked it up.
//
//===----------------------------------------------------------------------===//

#include "Checker.h"
#include "Replay.h"
#include "Spans.h"
#include "Workloads.h"

#include "driver/BatchDriver.h"
#include "ir/Dominators.h"
#include "ir/LoopInfo.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "suites/Suites.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

using namespace layra;
using namespace perfbench;

namespace {

struct BatchInputs {
  std::vector<std::unique_ptr<Suite>> Suites;
  std::vector<BatchJob> Jobs;
  /// SSA form of every suite function, for the checks and the replay.
  std::map<const Function *, Function> Ssa;
};

/// One pipeline task in report order: job-major, then suite order.
struct TaskRef {
  const BatchJob *Job;
  const Function *F;
  const Function *Ssa;
};

std::vector<TaskRef> tasksOf(const BatchInputs &In) {
  std::vector<TaskRef> Tasks;
  for (const BatchJob &Job : In.Jobs)
    for (const SuiteProgram &Prog : Job.SuiteData->Programs)
      for (const Function &F : Prog.Functions)
        Tasks.push_back({&Job, &F, &In.Ssa.at(&F)});
  return Tasks;
}

/// The set-up step every batch workload ends with: SSA conversion of each
/// suite function.
void convertSuites(BatchInputs &In, SpanRecorder &Rec) {
  ScopedSpan S(Rec, span::Ssa, 0);
  for (const auto &Suite : In.Suites)
    for (const SuiteProgram &Prog : Suite->Programs)
      for (const Function &F : Prog.Functions)
        In.Ssa.emplace(&F, convertToSsa(F).Ssa);
}

BatchJob jobFor(const Suite &S, unsigned Regs) {
  BatchJob Job;
  Job.SuiteName = S.Name;
  Job.SuiteData = &S;
  Job.Target = ST231;
  Job.NumRegisters = Regs;
  return Job;
}

BatchInputs makeSweep(uint64_t Seed, SpanRecorder &Rec) {
  BatchInputs In;
  {
    ScopedSpan S(Rec, "suites.generate", 0);
    In.Suites.push_back(std::make_unique<Suite>(makeSuite("eembc")));
    In.Suites.push_back(std::make_unique<Suite>(makeSuite("spec2000int")));
  }
  convertSuites(In, Rec);
  for (const auto &S : In.Suites)
    for (unsigned Regs = 4; Regs <= 16; ++Regs)
      In.Jobs.push_back(jobFor(*S, Regs));
  Rng R(Seed);
  R.shuffle(In.Jobs);
  return In;
}

/// Eight functions from about 1k to 12k SSA values, geometrically spaced
/// so they straddle Graph::kMaxDenseVertices.  Even ones draw from a small
/// variable pool and fit 16 registers without spilling; odd ones, the
/// largest among them, keep about 22 values live and run every spill
/// round at both budgets.
BatchInputs makeHuge(uint64_t Seed, SpanRecorder &Rec) {
  BatchInputs In;
  auto S = std::make_unique<Suite>();
  S->Name = "huge";
  {
    ScopedSpan Span(Rec, "suites.generate", 0);
    for (unsigned I = 0; I < 8; ++I) {
      double TargetValues = 1000.0 * std::pow(12.0, I / 7.0);
      ProgramGenOptions Shape;
      Shape.NumVars = I % 2 ? 22 : 14;
      Shape.NumParams = 6;
      // About five SSA values per generated block at this shape.
      Shape.MaxBlocks = unsigned(TargetValues / 5.0);
      Shape.MaxNesting = 4;
      Shape.MaxRegionsPerSeq = 12;
      Rng R(0x6875676500ULL + I);
      SuiteProgram Prog;
      Prog.Name = "huge" + std::to_string(I);
      Function F = generateFunction(R, Shape, Prog.Name + "_f0");
      DominatorTree Dom(F);
      LoopInfo Loops(F, Dom);
      Loops.annotate(F);
      Prog.Functions.push_back(std::move(F));
      S->Programs.push_back(std::move(Prog));
    }
  }
  Rng R(Seed);
  R.shuffle(S->Programs);
  In.Suites.push_back(std::move(S));
  convertSuites(In, Rec);
  for (unsigned Regs : {8u, 16u})
    In.Jobs.push_back(jobFor(*In.Suites.back(), Regs));
  R.shuffle(In.Jobs);
  return In;
}

/// Runs Fn(I) for I in [0, N) on \p Threads threads.
template <typename FnT> void parallelFor(unsigned Threads, size_t N, FnT Fn) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
}

std::vector<unsigned> budgetsOf(const BatchJob &Job) {
  return resolveClassBudgets(Job.Target, Job.NumRegisters, Job.ClassRegs);
}

/// Validated reference result of every task: a direct
/// runAllocationPipeline call whose assignment passed checkAssignment.
/// Error[I] is non-empty when task I's reference itself is invalid.
struct Reference {
  std::vector<ResultDigest> Digest;
  std::vector<std::string> Error;
};

Reference computeReference(const std::vector<TaskRef> &Tasks) {
  Reference Ref;
  Ref.Digest.resize(Tasks.size());
  Ref.Error.resize(Tasks.size());
  parallelFor(hardwareThreads(), Tasks.size(), [&](size_t I) {
    const TaskRef &T = Tasks[I];
    std::vector<unsigned> Budgets = budgetsOf(*T.Job);
    PipelineResult R = runAllocationPipeline(*T.Ssa, T.Job->Target, Budgets,
                                             T.Job->Options);
    std::string Error = checkAssignment(R.Rewritten, R.Regs, Budgets, R.Fits);
    if (!Error.empty())
      Ref.Error[I] = T.F->name() + " at " +
                     std::to_string(T.Job->NumRegisters) + " regs: " + Error;
    Ref.Digest[I] = ResultDigest::of(R);
  });
  return Ref;
}

std::vector<const TaskResult *> flatTasks(const DriverReport &Report) {
  std::vector<const TaskResult *> Out;
  for (const JobReport &JR : Report.Jobs)
    for (const TaskResult &T : JR.Tasks)
      Out.push_back(&T);
  return Out;
}

/// Checks one driver pass against the reference; counts every task.
void checkPass(const DriverReport &Report, const std::vector<TaskRef> &Tasks,
               const Reference &Ref, Tally &Ops) {
  std::vector<const TaskResult *> Got = flatTasks(Report);
  if (Got.size() != Tasks.size()) {
    Ops.fail("driver reported " + std::to_string(Got.size()) + " tasks, " +
             std::to_string(Tasks.size()) + " expected");
    return;
  }
  for (size_t I = 0; I < Tasks.size(); ++I) {
    std::string Error = Ref.Error[I];
    if (Error.empty()) {
      Error = diffOutcome(Got[I]->Out, Ref.Digest[I]);
      if (!Error.empty())
        Error = Tasks[I].F->name() + ": " + Error;
    }
    Ops.check(Error);
  }
}

RunResult measure(const RunOptions &Opt, bool Huge) {
  const unsigned Threads = Opt.Threads ? Opt.Threads : hardwareThreads();
  // sweep: one driver with a pool of Threads.  huge: Threads independent
  // single-threaded drivers, each over the functions in its own seeded
  // order, so a pass's time does not hang on which worker drew the
  // largest function, and each figure averages over every processor.
  const unsigned Replicas = Huge ? Threads : 1;
  auto make = Huge ? makeHuge : makeSweep;
  SpanRecorder Untraced(false);

  // Set-up is repeated after every pass (and at least kSetupRepeats
  // times), so its samples spread over the run like the passes do.  Each
  // time, every one of Threads threads sets up one copy and times it, so
  // the samples also spread over the processors, whose speeds drift
  // apart; setup_s is the median of all samples.  The first inputs are
  // the ones measured.
  std::vector<double> SetupS;
  unsigned SetUps = 0;
  auto setUp = [&] {
    std::vector<BatchInputs> Inputs(Threads);
    std::vector<double> S(Threads);
    parallelFor(Threads, Threads, [&](size_t R) {
      double T0 = nowSeconds();
      Inputs[R] = make(Opt.Seed + R, Untraced);
      S[R] = nowSeconds() - T0;
    });
    SetupS.insert(SetupS.end(), S.begin(), S.end());
    ++SetUps;
    Inputs.resize(Replicas);
    return Inputs;
  };
  const std::vector<BatchInputs> In = setUp();

  // The host's speed drifts by several percent over seconds, so every
  // figure is taken per pass and reported as the median over passes;
  // a slow second then moves one pass, not the run.
  std::vector<double> TaskMs, PassTput, PassP50, PassP99, PassMaxMs;
  std::vector<std::vector<DriverReport>> Passes;
  const double Deadline = nowSeconds() + Opt.Seconds;
  do {
    std::vector<std::unique_ptr<BatchDriver>> Drivers;
    for (unsigned R = 0; R < Replicas; ++R)
      Drivers.push_back(std::make_unique<BatchDriver>(Huge ? 1 : Threads));
    std::vector<DriverReport> Reports(Replicas);
    double T0 = nowSeconds();
    parallelFor(Replicas, Replicas,
                [&](size_t R) { Reports[R] = Drivers[R]->run(In[R].Jobs); });
    double WallS = nowSeconds() - T0;
    std::vector<double> Ms;
    for (const DriverReport &Report : Reports) {
      double Max = 0;
      for (const TaskResult *T : flatTasks(Report))
        if (!T->CacheHit) {
          Ms.push_back(T->WallMs);
          Max = std::max(Max, T->WallMs);
        }
      PassMaxMs.push_back(Max);
    }
    if (Ms.empty())
      throw std::runtime_error("a fresh driver solved no task");
    TaskMs.insert(TaskMs.end(), Ms.begin(), Ms.end());
    PassTput.push_back(double(Ms.size()) / WallS);
    if (percentileReportable(Ms.size(), 0.50))
      PassP50.push_back(percentile(Ms, 0.50));
    if (percentileReportable(Ms.size(), 0.99))
      PassP99.push_back(percentile(Ms, 0.99));
    // Only the outcomes are kept for checking; the timing fields are
    // already copied out.
    Passes.push_back(std::move(Reports));
    // Stop the pass's pool threads first so set-up has the processors.
    Drivers.clear();
    setUp();
  } while (nowSeconds() < Deadline);
  while (SetUps < unsigned(kSetupRepeats))
    setUp();
  // Read before the checks, which solve on every processor at once.
  const double PeakRssMb = peakRssMb();

  RunResult Out;
  for (unsigned R = 0; R < Replicas; ++R) {
    std::vector<TaskRef> Tasks = tasksOf(In[R]);
    Reference Ref = computeReference(Tasks);
    for (const std::vector<DriverReport> &Reports : Passes)
      checkPass(Reports[R], Tasks, Ref, Out.Ops);
  }

  Weight SpillCost = 0;
  uint64_t SpillOps = 0, Fit = 0, Tasks = 0;
  for (const TaskResult *T : flatTasks(Passes.front().front())) {
    SpillCost += T->Out.SpillCost;
    SpillOps += T->Out.NumLoads + T->Out.NumStores;
    Fit += T->Out.Fits;
    ++Tasks;
  }
  auto &M = Out.Metrics;
  M["setup_s"] = {median(SetupS), "s", SetupS.size()};
  M["throughput_per_s"] = {median(PassTput), "1/s", PassTput.size()};
  // Percentiles are medians over passes; a pass too small for one (huge
  // on a single thread) pools every pass instead.
  auto perPass = [&](const std::vector<double> &PerPass, double Q) {
    return Metric{PerPass.size() == PassTput.size() ? median(PerPass)
                                                    : percentile(TaskMs, Q),
                  "ms", TaskMs.size()};
  };
  M["latency_ms_p50"] = perPass(PassP50, 0.50);
  if (Huge)
    M["latency_ms_max"] = {median(PassMaxMs), "ms", PassMaxMs.size()};
  else
    M["latency_ms_p99"] = perPass(PassP99, 0.99);
  M["peak_rss_mb"] = {PeakRssMb, "MB", 0};
  M["spill_cost"] = {double(SpillCost), "cost", 0};
  M["spill_ops"] = {double(SpillOps), "count", 0};
  M["fit_frac"] = {double(Fit) / double(Tasks), "fraction", 0};
  M["error_rate"] = {Out.Ops.errorRate(), "fraction", Out.Ops.attempted()};
  return Out;
}

/// The traced run: driver passes inside "driver.run" spans, then replays of
/// every task through the public layer calls, alternating between a
/// recorder that keeps nothing and one that keeps every span, so the
/// difference in throughput is the tracing overhead.
RunResult traced(const RunOptions &Opt, bool Huge) {
  const unsigned Threads = Opt.Threads ? Opt.Threads : hardwareThreads();
  const double Start = nowSeconds();
  SpanRecorder Setup(true);
  BatchInputs In = (Huge ? makeHuge : makeSweep)(Opt.Seed, Setup);
  std::vector<TaskRef> Tasks = tasksOf(In);

  std::vector<double> RunMs, BusyFrac;
  uint64_t DriverTasks = 0, DriverHits = 0;
  do {
    BatchDriver Driver(Threads);
    double T0 = nowSeconds();
    DriverReport Report = Driver.run(In.Jobs);
    double Ms = (nowSeconds() - T0) * 1e3;
    double TaskSum = 0;
    DriverTasks = DriverHits = 0;
    for (const TaskResult *T : flatTasks(Report)) {
      TaskSum += T->WallMs;
      ++DriverTasks;
      DriverHits += T->CacheHit;
    }
    RunMs.push_back(Ms);
    BusyFrac.push_back(TaskSum / (Threads * Ms));
  } while (nowSeconds() - Start < Opt.Seconds / 4);

  RunResult Out;
  Reference Ref = computeReference(Tasks);

  // Each pass replays every task twice, once with a recorder that keeps
  // nothing and once with one that keeps every span, in alternating order
  // so neither side always runs on warm caches; the throughput difference
  // is the tracing overhead.
  SolverWorkspace WS;
  std::vector<double> TputOn, TputOff;
  std::vector<Span> LastSpans;
  LayerCounts Counts;
  do {
    SpanRecorder On(true), Off(false);
    LayerCounts PassCounts, Ignored;
    double BusyOn = 0, BusyOff = 0;
    for (size_t I = 0; I < Tasks.size(); ++I) {
      const TaskRef &T = Tasks[I];
      std::vector<unsigned> Budgets = budgetsOf(*T.Job);
      for (bool Traced : {I % 2 == 0, I % 2 != 0}) {
        SpanRecorder &Rec = Traced ? On : Off;
        double T0 = nowSeconds();
        PipelineResult R;
        {
          ScopedSpan Task(Rec, span::Task, I);
          std::optional<SsaConversion> Ssa;
          {
            ScopedSpan S(Rec, span::Ssa, I);
            Ssa.emplace(convertToSsa(*T.F));
          }
          R = replayPipeline(Ssa->Ssa, T.Job->Target, Budgets,
                             T.Job->Options, WS, Rec, I,
                             Traced ? PassCounts : Ignored);
        }
        (Traced ? BusyOn : BusyOff) += nowSeconds() - T0;
        std::string Error = Ref.Error[I];
        if (Error.empty())
          Error = diffResults(ResultDigest::of(R), Ref.Digest[I]);
        Out.Ops.check(Error.empty() ? Error
                                    : T.F->name() + " replay: " + Error);
      }
    }
    TputOn.push_back(double(Tasks.size()) / BusyOn);
    TputOff.push_back(double(Tasks.size()) / BusyOff);
    LastSpans = On.spans();
    Counts = PassCounts;
  } while (nowSeconds() - Start < Opt.Seconds);

  std::string Error;
  if (!writeChromeTrace(Opt.OutDir + "/trace-" + Opt.Workload + "-" +
                            std::to_string(Opt.Seed) + ".json",
                        LastSpans, &Error))
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());

  auto Totals = totalsByName(LastSpans);
  auto SetupTotals = totalsByName(Setup.spans());
  auto &M = Out.Metrics;
  auto selfMs = [&](const char *Name) {
    return Metric{Totals[Name].SelfMs, "ms", 0};
  };
  auto count = [](uint64_t N) { return Metric{double(N), "count", 0}; };
  M["suites.generate_ms"] = {SetupTotals["suites.generate"].SelfMs, "ms", 0};
  M["ir.ssa_ms"] = selfMs(span::Ssa);
  M["ir.liveness_ms"] = selfMs(span::Liveness);
  M["ir.liveness_calls"] = count(Counts.LivenessCalls);
  M["ir.spill_costs_ms"] = selfMs(span::SpillCosts);
  M["ir.interference_ms"] = selfMs(span::Interference);
  M["ir.interference_edges"] = count(Counts.InterferenceEdges);
  M["ir.live_intervals_ms"] = selfMs(span::LiveIntervals);
  M["ir.spill_rewrite_ms"] = selfMs(span::SpillRewrite);
  M["ir.spill_instrs"] = count(Counts.SpillInstrs);
  M["graph.chordal_ms"] = selfMs(span::Chordal);
  M["graph.vertices"] = count(Counts.Vertices);
  M["graph.cliques"] = count(Counts.Cliques);
  M["core.allocate_ms"] = selfMs(span::Allocate);
  M["core.allocate_calls"] = count(Counts.AllocateCalls);
  M["core.assign_ms"] = selfMs(span::Assign);
  M["alloc.pipeline_ms"] = {Totals[span::Pipeline].TotalMs, "ms", 0};
  M["alloc.self_ms"] = selfMs(span::Pipeline);
  M["alloc.rounds"] = count(Counts.Rounds);
  M["alloc.builds"] = count(Counts.Builds);
  M["driver.run_ms"] = {median(RunMs), "ms", RunMs.size()};
  M["driver.tasks"] = count(DriverTasks);
  M["driver.pool_busy_frac"] = {median(BusyFrac), "fraction", BusyFrac.size()};
  M["driver.cache_hit_ratio"] = {
      DriverTasks ? double(DriverHits) / double(DriverTasks) : 0, "fraction",
      0};
  M["driver.cache_lookups"] = count(DriverTasks);
  M["trace.coverage_frac"] = {coverageOf(LastSpans, span::Pipeline),
                              "fraction", 0};
  M["trace.overhead_frac"] = {1 - median(TputOn) / median(TputOff), "fraction",
                              TputOn.size()};
  return Out;
}

} // namespace

RunResult perfbench::runSweep(const RunOptions &Opt) {
  return Opt.Trace ? traced(Opt, false) : measure(Opt, false);
}

RunResult perfbench::runHuge(const RunOptions &Opt) {
  return Opt.Trace ? traced(Opt, true) : measure(Opt, true);
}
