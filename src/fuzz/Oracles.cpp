//===- fuzz/Oracles.cpp - Differential oracle registry ----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "alloc/BruteForce.h"
#include "alloc/OptimalBnB.h"
#include "core/Layered.h"
#include "core/LayeredHeuristic.h"
#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "fuzz/BuildReference.h"
#include "ir/Parser.h"
#include "obs/EventLog.h"
#include "obs/RequestTrace.h"
#include "obs/Trace.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "suites/Suites.h"

using namespace layra;

namespace {

/// Largest instance the exhaustive-search cross check runs on.
constexpr unsigned kBruteForceVertexLimit = 18;

OracleOutcome fail(std::string Detail) { return {false, std::move(Detail)}; }

/// Expresses a case's budget vector as the (NumRegisters, ClassRegs)
/// pair BatchJob and the wire protocol speak: class 0 through the swept
/// register count, every other class as an explicit by-name override.
std::vector<ClassRegOverride>
classOverrides(const TargetDesc &Target, const std::vector<unsigned> &Budgets) {
  std::vector<ClassRegOverride> Overrides;
  for (unsigned C = 1; C < Budgets.size(); ++C)
    Overrides.push_back({Target.regClass(C).Name, Budgets[C]});
  return Overrides;
}

/// The single-function suite both driver-level oracles feed to
/// BatchDriver, labelled the way the server labels a submit_ir suite so
/// the serve-vs-direct comparison is over identical jobs.
Suite singleFunctionSuite(const Function &F, const std::string &SuiteName) {
  Suite S;
  S.Name = SuiteName;
  SuiteProgram Prog;
  Prog.Name = F.name();
  Prog.Functions.push_back(F);
  S.Programs.push_back(std::move(Prog));
  return S;
}

std::vector<BatchJob> singleJob(const Suite &S, const TargetDesc &Target,
                                const std::vector<unsigned> &Budgets) {
  BatchJob Job;
  Job.SuiteName = S.Name;
  Job.SuiteData = &S;
  Job.Target = Target;
  Job.NumRegisters = Budgets.empty() ? 4 : Budgets[0];
  Job.ClassRegs = classOverrides(Target, Budgets);
  return {Job};
}

/// Heuristic spill costs may never undercut a proven exact optimum, and
/// where exhaustive search is affordable it must agree with the
/// branch-and-bound cost exactly.
OracleOutcome checkHeuristicVsExact(const OracleContext &Ctx) {
  AllocationProblem P =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS);
  OptimalBnBAllocator BnB;
  AllocationResult Exact = BnB.allocate(P, Ctx.WS);
  if (!Exact.Proven)
    return {}; // No proven anchor; nothing to compare against.
  if (!isFeasibleAllocation(P, Exact.Allocated))
    return fail("BnB allocation violates a pressure constraint");
  for (const char *Name : {"bfpl", "lh"}) {
    AllocationResult H = makeAllocator(Name)->allocateProblem(P, Ctx.WS);
    if (!isFeasibleAllocation(P, H.Allocated))
      return fail(std::string(Name) +
                  " allocation violates a pressure constraint");
    if (H.SpillCost < Exact.SpillCost)
      return fail(std::string(Name) + " spill cost " +
                  std::to_string(H.SpillCost) + " beats proven optimum " +
                  std::to_string(Exact.SpillCost));
  }
  if (P.graph().numVertices() <= kBruteForceVertexLimit) {
    AllocationResult Brute = BruteForceAllocator().allocate(P);
    if (Brute.SpillCost != Exact.SpillCost)
      return fail("brute-force optimum " + std::to_string(Brute.SpillCost) +
                  " disagrees with BnB optimum " +
                  std::to_string(Exact.SpillCost));
  }
  return {};
}

/// The layered heuristic's register assignment must give interfering
/// same-class vertices distinct registers, stay within each class's
/// budget, and only assign registers to allocated vertices.
OracleOutcome checkAssignmentValid(const OracleContext &Ctx) {
  AllocationProblem P =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS);
  for (RegClassId C = 0; C < P.numClasses(); ++C) {
    std::vector<VertexId> ToGlobal;
    AllocationProblem Sub =
        P.multiClass() ? P.projectClass(C, ToGlobal, Ctx.WS) : P;
    if (Sub.graph().numVertices() == 0)
      continue;
    LayeredHeuristicResult LH = layeredHeuristicAllocate(Sub, Ctx.WS);
    const std::vector<char> &Allocated = LH.Allocation.Allocated;
    if (Allocated.size() != Sub.graph().numVertices() ||
        LH.RegisterOf.size() != Sub.graph().numVertices())
      return fail("lh result size mismatch in class " + std::to_string(C));
    for (VertexId V = 0; V < Sub.graph().numVertices(); ++V) {
      if (!Allocated[V]) {
        if (LH.RegisterOf[V] != LayeredHeuristicResult::kNoRegister)
          return fail("spilled vertex carries a register in class " +
                      std::to_string(C));
        continue;
      }
      if (LH.RegisterOf[V] >= Sub.uniformBudget())
        return fail("register index exceeds budget " +
                    std::to_string(Sub.uniformBudget()) + " in class " +
                    std::to_string(C));
      for (VertexId U : Sub.graph().neighbors(V))
        if (Allocated[U] && LH.RegisterOf[V] == LH.RegisterOf[U])
          return fail("interfering pair shares register " +
                      std::to_string(LH.RegisterOf[V]) + " in class " +
                      std::to_string(C));
    }
    if (!isFeasibleAllocation(Sub, Allocated))
      return fail("lh allocation violates a pressure constraint in class " +
                  std::to_string(C));
    if (!P.multiClass())
      break; // Sub aliases P; one pass covers it.
  }
  return {};
}

/// The baseline backends (graph coloring, both linear-scan policies) must
/// produce feasible, budget-respecting allocations whose spill cost never
/// undercuts a proven exact optimum.  Nothing differentially checked these
/// allocators before: they are the paper's comparison points, so a silently
/// infeasible baseline would skew every figure.
OracleOutcome checkBaselineBackends(const OracleContext &Ctx) {
  AllocationProblem P =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS);
  OptimalBnBAllocator BnB;
  AllocationResult Exact = BnB.allocate(P, Ctx.WS);
  for (const char *Name : {"gc", "ls", "bls"}) {
    std::unique_ptr<Allocator> A = makeAllocator(Name);
    if (A->requiresIntervals() && !P.Intervals)
      return fail(std::string(Name) +
                  ": SSA problem unexpectedly lacks live intervals");
    AllocationResult R = A->allocateProblem(P, Ctx.WS);
    if (R.Allocated.size() != P.graph().numVertices())
      return fail(std::string(Name) + " flag vector size mismatch");
    if (!isFeasibleAllocation(P, R.Allocated))
      return fail(std::string(Name) +
                  " allocation violates a pressure constraint");
    if (Exact.Proven && R.SpillCost < Exact.SpillCost)
      return fail(std::string(Name) + " spill cost " +
                  std::to_string(R.SpillCost) + " beats proven optimum " +
                  std::to_string(Exact.SpillCost));
  }
  return {};
}

/// Shared-workspace runs must be byte-identical to fresh runs: a
/// SolverWorkspace carries capacity, never state.
OracleOutcome checkWorkspacePure(const OracleContext &Ctx) {
  if (!Ctx.WS)
    return {}; // Nothing to compare without a long-lived workspace.
  AllocationProblem Fresh =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets);
  AllocationProblem Reused =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS);
  if (Fresh.Peo.Order != Reused.Peo.Order)
    return fail("workspace reuse changed the elimination order");
  if (Fresh.Cliques != Reused.Cliques)
    return fail("workspace reuse changed the pressure constraints");

  for (const char *Name : {"bfpl", "lh", "optimal"}) {
    AllocationResult A = makeAllocator(Name)->allocateProblem(Fresh);
    AllocationResult B = makeAllocator(Name)->allocateProblem(Reused, Ctx.WS);
    if (A.Allocated != B.Allocated || A.SpillCost != B.SpillCost)
      return fail(std::string(Name) +
                  " diverges between fresh and reused workspaces");
  }
  return {};
}

/// The problem build must equal the reference (fuzz/BuildReference.h):
/// on the SSA form liveness, discovered edges, adjacency order, PEO, later
/// lists, clique lists and cliquesOf; on the case's own function,
/// typically not SSA and defining values at several points, the general
/// build's liveness, discovered edges and adjacency, where the stable
/// dedup drops rediscovered edges.
OracleOutcome checkBuildVsReference(const OracleContext &Ctx) {
  std::string Diff = diffAgainstReference(
      *Ctx.Ssa,
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS),
      referenceInterferenceGraph(*Ctx.Ssa, *Ctx.Target));
  if (!Diff.empty())
    return fail("SSA build: " + Diff);
  Diff = diffAgainstReference(
      Ctx.Case->F,
      buildGeneralProblem(Ctx.Case->F, *Ctx.Target, Ctx.Case->Budgets),
      referenceInterferenceGraph(Ctx.Case->F, *Ctx.Target));
  if (!Diff.empty())
    return fail("general build: " + Diff);
  return {};
}

/// Print -> parse -> print must be stable: the first print of a parsed
/// function re-prints byte-identically ever after, and parsing preserves
/// the structural content hash.
OracleOutcome checkParseRoundtrip(const OracleContext &Ctx) {
  std::string First = Ctx.Case->F.toString();
  ParsedFunction P1 = parseFunction(First);
  if (!P1.Ok)
    return fail("own toString() fails to parse at line " +
                std::to_string(P1.Line) + ": " + P1.Error);
  std::string Second = P1.F.toString();
  ParsedFunction P2 = parseFunction(Second);
  if (!P2.Ok)
    return fail("re-printed form fails to parse at line " +
                std::to_string(P2.Line) + ": " + P2.Error);
  if (P2.F.toString() != Second)
    return fail("print/parse round trip is not stable from second print");
  if (hashFunction(P1.F) != hashFunction(P2.F))
    return fail("round trip changed the structural content hash");
  std::string VerifyError;
  if (!verifyFunction(P2.F, /*ExpectSsa=*/false, &VerifyError))
    return fail("round-tripped function fails verification: " + VerifyError);
  return {};
}

/// A warm driver's cache-transparent report must be byte-identical to a
/// fresh driver's report over the same jobs (timing excluded, per-task
/// detail included -- that is where the cache_hit flags live).
OracleOutcome checkCacheTransparent(const OracleContext &Ctx) {
  Suite S = singleFunctionSuite(Ctx.Case->F, "fuzz");
  std::vector<BatchJob> Jobs = singleJob(S, *Ctx.Target, Ctx.Case->Budgets);
  // Duplicate the job so intra-batch twin classification is exercised too.
  Jobs.push_back(Jobs.front());

  BatchDriver FreshDriver(1);
  std::string FreshJson =
      driverReportToJson(FreshDriver.run(Jobs), /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true)
          .dump(2);

  BatchDriver WarmDriver(1);
  WarmDriver.run(Jobs); // Warm the persistent caches.
  std::string WarmJson =
      driverReportToJson(WarmDriver.run(Jobs, /*CacheTransparent=*/true),
                         /*IncludeTiming=*/false, /*IncludeTasks=*/true)
          .dump(2);
  if (FreshJson != WarmJson)
    return fail("warm cache-transparent report differs from a fresh run");
  return {};
}

/// A register sweep in one BatchDriver::run shares the case's SSA form and
/// round-0 problem across its budgets.  Every task must equal a direct
/// pipeline run that builds its own round 0, under an allocator that reads
/// the graph and one that reads the intervals.
OracleOutcome checkBudgetSweep(const OracleContext &Ctx) {
  Suite S = singleFunctionSuite(Ctx.Case->F, "fuzz");
  for (const char *Name : {"bfpl", "ls"}) {
    std::vector<BatchJob> Jobs;
    for (unsigned Extra : {0u, 1u, 3u}) {
      std::vector<unsigned> Budgets = Ctx.Case->Budgets;
      Budgets[0] += Extra;
      Jobs.push_back(singleJob(S, *Ctx.Target, Budgets).front());
      Jobs.back().Options.AllocatorName = Name;
    }
    BatchDriver Driver(1);
    DriverReport Report = Driver.run(Jobs);
    for (const JobReport &JR : Report.Jobs) {
      PipelineResult Want = runAllocationPipeline(
          *Ctx.Ssa, *Ctx.Target, JR.Job.Budgets, JR.Job.Options);
      const TaskOutcome &Got = JR.Tasks.front().Out;
      if (Got.SpillCost != Want.TotalSpillCost ||
          Got.NumLoads != Want.Spills.NumLoads ||
          Got.NumStores != Want.Spills.NumStores ||
          Got.LoadsFolded != Want.LoadsFolded || Got.Rounds != Want.Rounds ||
          Got.FinalMaxLive != Want.FinalMaxLive || Got.Fits != Want.Fits)
        return fail(std::string(Name) + " at " +
                    std::to_string(JR.Job.NumRegisters) +
                    " registers: swept driver task differs from a direct "
                    "pipeline run (spill cost " +
                    std::to_string(Got.SpillCost) + " vs " +
                    std::to_string(Want.TotalSpillCost) + ")");
    }
  }
  return {};
}

/// Observability must be free of observable effect: running the pipeline
/// with tracing and phase accounting fully enabled yields a timing-free
/// report byte-identical to a quiet run.  Guards the zero-cost-when-
/// disabled contract from the other side -- instrumentation may measure,
/// never steer.
OracleOutcome checkMetricsQuiet(const OracleContext &Ctx) {
  Suite S = singleFunctionSuite(Ctx.Case->F, "fuzz");
  std::vector<BatchJob> Jobs = singleJob(S, *Ctx.Target, Ctx.Case->Budgets);

  // Quiet run first, with every obs feature off (the fuzz driver leaves
  // them off; force it anyway so the oracle is self-contained).
  TraceCollector &TC = TraceCollector::global();
  bool WasTracing = TC.enabled();
  bool WasDet = TC.deterministic();
  bool WasAccounting = obs::phaseAccountingEnabled();
  TC.disable();
  obs::setPhaseAccounting(false);
  BatchDriver QuietDriver(1);
  std::string QuietJson =
      driverReportToJson(QuietDriver.run(Jobs), /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true)
          .dump(2);

  // Instrumented run: deterministic tracing, phase accounting, the
  // request-scoped event log, and a request trace taking its phases from
  // the report -- every observability surface at once.
  obs::EventLog &Events = obs::EventLog::global();
  bool WasEvents = Events.enabled();
  TC.enable(/*Deterministic=*/true);
  obs::setPhaseAccounting(true);
  Events.setEnabled(true);
  Events.record(obs::EventKind::RequestStart, 0, "fuzz-metrics-quiet");
  BatchDriver LoudDriver(1);
  DriverReport Loud = LoudDriver.run(Jobs);
  std::string LoudJson = driverReportToJson(Loud, /*IncludeTiming=*/false,
                                            /*IncludeTasks=*/true)
                             .dump(2);
  obs::RequestTrace Trace;
  Trace.begin("fuzz-metrics-quiet", std::chrono::steady_clock::now());
  for (const JobReport &JR : Loud.Jobs)
    if (JR.Phases)
      Trace.JobPhases.push_back(*JR.Phases);
  Events.record(obs::EventKind::RequestEnd, 0, Trace.id().c_str());
  TC.disable();
  TC.clear();
  obs::setPhaseAccounting(WasAccounting);
  Events.setEnabled(WasEvents);
  if (WasTracing)
    TC.enable(WasDet);

  if (Trace.JobPhases.size() != Jobs.size())
    return fail("phase accounting did not report one breakdown per job");

  if (QuietJson != LoudJson)
    return fail("timing-free report changed when tracing/metrics were on");
  return {};
}

/// The allocation server's submit_ir response must be byte-identical to
/// a direct fresh BatchDriver run of the same single-function suite.
OracleOutcome checkServeDirect(const OracleContext &Ctx) {
  if (!Ctx.ServeClient)
    return {}; // Oracle disabled (no in-process server).

  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::SubmitIr;
  Req.IrText = Ctx.Ssa->toString();
  Req.TargetName = Ctx.Case->TargetName;
  Req.Regs = {Ctx.Case->Budgets.empty() ? 4u : Ctx.Case->Budgets[0]};
  Req.ClassRegs = classOverrides(*Ctx.Target, Ctx.Case->Budgets);
  Req.Details = true;

  std::string Response, Error;
  if (!Ctx.ServeClient->call(Client::makeSubmitIrRequest(Req), Response,
                             &Error))
    return fail("server transport failure: " + Error);
  if (Client::isErrorResponse(Response))
    return fail("server rejected the case: " + Response);

  // Mirror Server::Impl::handleSubmitIr's job construction exactly.
  ParsedFunction Parsed = parseFunction(Req.IrText);
  if (!Parsed.Ok)
    return fail("ssa text failed to re-parse: " + Parsed.Error);
  Suite S = singleFunctionSuite(Parsed.F, "submitted");
  std::vector<BatchJob> Jobs = singleJob(S, *Ctx.Target, Ctx.Case->Budgets);
  BatchDriver Direct(Ctx.ServeThreads);
  std::string DirectJson =
      driverReportToJson(Direct.run(Jobs), /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true)
          .dump(2) +
      "\n";
  if (Response != DirectJson)
    return fail("server response differs from a direct driver run");
  return {};
}

} // namespace

const std::vector<Oracle> &layra::oracleRegistry() {
  static const std::vector<Oracle> Registry{
      {"heuristic-vs-exact",
       "heuristic spill cost never beats a proven BnB/brute optimum",
       checkHeuristicVsExact, false},
      {"assignment-valid",
       "no interfering same-class pair shares a register; budgets held",
       checkAssignmentValid, false},
      {"baseline-backends",
       "gc/ls/bls allocations are feasible and never beat a proven optimum",
       checkBaselineBackends, false},
      {"workspace-pure",
       "shared-SolverWorkspace runs are byte-equal to fresh runs",
       checkWorkspacePure, false},
      {"build-vs-reference",
       "CSR problem build equals incremental lists + RTL + Fulkerson-Gross",
       checkBuildVsReference, false},
      {"parse-roundtrip",
       "textual IR print/parse round trip is stable and hash-preserving",
       checkParseRoundtrip, false},
      {"cache-transparent",
       "warm BatchDriver cache-transparent reports equal fresh reports",
       checkCacheTransparent, false},
      {"metrics-quiet",
       "tracing/phase accounting on vs off yields byte-identical reports",
       checkMetricsQuiet, false},
      {"serve-direct",
       "layra-serve submit_ir responses equal direct driver runs byte-for-byte",
       checkServeDirect, true},
      {"budget-sweep",
       "a three-budget sweep sharing round 0 equals direct pipeline runs",
       checkBudgetSweep, false},
  };
  return Registry;
}

const Oracle *layra::findOracle(const std::string &Name) {
  for (const Oracle &O : oracleRegistry())
    if (Name == O.Name)
      return &O;
  return nullptr;
}

OracleOutcome layra::runOracle(const Oracle &O, const OracleContext &Ctx) {
  OracleOutcome Outcome = O.Run(Ctx);
  if (Outcome.Ok && Ctx.BreakOracle == O.Name) {
    // The planted bug: deterministic, minimizable (any copy instruction
    // triggers it), and replayable from a reproducer file.
    for (const BasicBlock &BB : Ctx.Case->F.blocks())
      for (const Instruction &I : BB.Instrs)
        if (I.Op == Opcode::Copy)
          return fail("planted failure (--break-oracle): function contains "
                      "a copy instruction");
  }
  return Outcome;
}
