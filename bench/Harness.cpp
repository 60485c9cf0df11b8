//===- bench/Harness.cpp - Paper-figure benchmark harness ------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "alloc/Allocator.h"
#include "driver/BatchDriver.h"
#include "support/ParseUtil.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

using namespace layra;
using namespace layra::bench;

namespace {
/// Sums per-function costs into per-program costs, preserving the suite's
/// program order.
ProgramCosts sumByProgram(const Suite &S,
                          const std::vector<NamedProblem> &Problems,
                          const std::vector<Weight> &FunctionCosts) {
  ProgramCosts Out;
  std::map<std::string, size_t> Index;
  for (const SuiteProgram &Prog : S.Programs) {
    Index[Prog.Name] = Out.Programs.size();
    Out.Programs.push_back(Prog.Name);
    Out.Cost.push_back(0);
  }
  for (size_t I = 0; I < Problems.size(); ++I)
    Out.Cost[Index.at(Problems[I].Program)] += FunctionCosts[I];
  return Out;
}
} // namespace

FigureData layra::bench::measureFigure(const FigureSpec &Spec) {
  FigureData Data;
  Data.Spec = Spec;
  Data.AllocatorNames = Spec.Allocators;
  Data.AllocatorNames.push_back("optimal");

  Suite S = makeSuite(Spec.SuiteName);
  Data.Costs.assign(Data.AllocatorNames.size(), {});

  // One driver for the whole figure: each (allocator, register count)
  // batch of instances is fanned over its pool.
  BatchDriver Driver(Spec.Threads);

  // Instance structure (graph, constraints, intervals) is budget-
  // independent: build every problem once at the first register count and
  // re-budget per sweep point with withBudgets, which *shares* the
  // immutable graph instead of re-deriving liveness + interference per R
  // (and instead of the withRegisters-era full graph copy).
  std::vector<unsigned> Budgets =
      resolveClassBudgets(Spec.Target, Spec.RegisterCounts[0], {});
  std::vector<NamedProblem> Problems =
      Spec.ChordalPipeline ? chordalProblems(S, Spec.Target, Budgets)
                           : generalProblems(S, Spec.Target, Budgets);

  for (unsigned RIndex = 0; RIndex < Spec.RegisterCounts.size(); ++RIndex) {
    unsigned Regs = Spec.RegisterCounts[RIndex];
    std::vector<AllocationProblem> Swept;
    if (RIndex > 0) {
      Swept.reserve(Problems.size());
      for (NamedProblem &NP : Problems) {
        // Sweep class 0, keep every other class's budget: preserves the
        // class structure withBudgets requires, so multi-class suites
        // sweep correctly too.
        std::vector<unsigned> Budgets = NP.P.Budgets;
        Budgets[0] = Regs;
        Swept.push_back(NP.P.withBudgets(std::move(Budgets)));
      }
    }
    std::vector<const AllocationProblem *> Instances;
    Instances.reserve(Problems.size());
    for (size_t I = 0; I < Problems.size(); ++I)
      Instances.push_back(RIndex > 0 ? &Swept[I] : &Problems[I].P);

    for (size_t A = 0; A < Data.AllocatorNames.size(); ++A) {
      const std::string &Name = Data.AllocatorNames[A];
      bool IsOptimal = Name == "optimal";
      std::string Error;
      std::vector<AllocationResult> Results =
          Driver.solveProblems(Instances, Name, Error);
      if (!Error.empty()) {
        // A misconfigured figure (bad allocator name, linear scan over
        // graph-only instances) is a usage error, not a process abort.
        std::fprintf(stderr, "error: %s: %s\n", Spec.Id.c_str(),
                     Error.c_str());
        std::exit(2);
      }
      std::vector<Weight> FunctionCosts(Problems.size(), 0);
      for (size_t I = 0; I < Problems.size(); ++I) {
        FunctionCosts[I] = Results[I].SpillCost;
        if (IsOptimal) {
          ++Data.OptimalTotal;
          Data.OptimalProven += Results[I].Proven ? 1 : 0;
        }
      }
      Data.Costs[A].push_back(sumByProgram(S, Problems, FunctionCosts));
    }
  }
  return Data;
}

unsigned layra::bench::parseThreadsFlag(int Argc, char **Argv) {
  unsigned Result = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--threads=", 10) == 0) {
      if (!parseBoundedUnsigned(Argv[I] + 10, 1024, Result)) {
        std::fprintf(stderr,
                     "error: --threads must be an integer in [0, 1024]\n");
        std::exit(2);
      }
      continue;
    }
    // --threads=N is the only flag the figure binaries take; anything else
    // (misspellings, the space-separated form) must not silently run the
    // benchmark with default settings.
    std::fprintf(stderr,
                 "error: unknown argument '%s' (only --threads=N is "
                 "supported)\n",
                 Argv[I]);
    std::exit(2);
  }
  return Result;
}

/// Index of "optimal" in Data.AllocatorNames (always the last entry).
static size_t optimalIndex(const FigureData &Data) {
  return Data.AllocatorNames.size() - 1;
}

static void printHeader(const FigureData &Data) {
  std::printf("== %s: %s ==\n", Data.Spec.Id.c_str(),
              Data.Spec.Title.c_str());
  std::printf("suite=%s target=%s pipeline=%s\n", Data.Spec.SuiteName.c_str(),
              Data.Spec.Target.Name,
              Data.Spec.ChordalPipeline ? "SSA/chordal" : "non-SSA/general");
}

static void printFooter(const FigureData &Data) {
  std::printf("optimal baseline: %u/%u instances proven optimal\n\n",
              Data.OptimalProven, Data.OptimalTotal);
}

void layra::bench::printAggregateFigure(const FigureData &Data) {
  printHeader(Data);
  std::vector<std::string> Headers{"allocator"};
  for (unsigned Regs : Data.Spec.RegisterCounts)
    Headers.push_back(std::to_string(Regs) + " regs");
  Table T(std::move(Headers));

  size_t Opt = optimalIndex(Data);
  for (size_t A = 0; A < Data.AllocatorNames.size(); ++A) {
    std::vector<std::string> Row{Data.AllocatorNames[A]};
    for (size_t RIndex = 0; RIndex < Data.Spec.RegisterCounts.size();
         ++RIndex) {
      Weight Sum = 0, OptSum = 0;
      for (size_t PIdx = 0; PIdx < Data.Costs[A][RIndex].Cost.size();
           ++PIdx) {
        Sum += Data.Costs[A][RIndex].Cost[PIdx];
        OptSum += Data.Costs[Opt][RIndex].Cost[PIdx];
      }
      Row.push_back(OptSum == 0 ? (Sum == 0 ? "1.000" : "inf")
                                : Table::num(static_cast<double>(Sum) /
                                             static_cast<double>(OptSum)));
    }
    T.addRow(std::move(Row));
  }
  T.print(stdout);
  printFooter(Data);
}

void layra::bench::printDistributionFigure(const FigureData &Data) {
  printHeader(Data);
  Table T({"allocator", "regs", "min", "q1", "median", "q3", "p95", "max",
           "programs"});
  size_t Opt = optimalIndex(Data);
  for (size_t A = 0; A + 1 < Data.AllocatorNames.size(); ++A) {
    for (size_t RIndex = 0; RIndex < Data.Spec.RegisterCounts.size();
         ++RIndex) {
      std::vector<double> Ratios;
      const ProgramCosts &Costs = Data.Costs[A][RIndex];
      const ProgramCosts &OptCosts = Data.Costs[Opt][RIndex];
      for (size_t PIdx = 0; PIdx < Costs.Cost.size(); ++PIdx) {
        if (OptCosts.Cost[PIdx] == 0) {
          if (Costs.Cost[PIdx] == 0)
            Ratios.push_back(1.0);
          continue; // Paper-style: skip infinite ratios (never hit here).
        }
        Ratios.push_back(static_cast<double>(Costs.Cost[PIdx]) /
                         static_cast<double>(OptCosts.Cost[PIdx]));
      }
      SampleSummary Summary = summarize(Ratios);
      T.addRow({Data.AllocatorNames[A],
                std::to_string(Data.Spec.RegisterCounts[RIndex]),
                Table::num(Summary.Min), Table::num(Summary.Q1),
                Table::num(Summary.Median), Table::num(Summary.Q3),
                Table::num(Summary.P95), Table::num(Summary.Max),
                Table::num(static_cast<long long>(Summary.Count))});
    }
  }
  T.print(stdout);
  printFooter(Data);
}

void layra::bench::printPerProgramFigure(const FigureData &Data,
                                         unsigned RegisterCount) {
  printHeader(Data);
  size_t RIndex = 0;
  bool Found = false;
  for (size_t I = 0; I < Data.Spec.RegisterCounts.size(); ++I)
    if (Data.Spec.RegisterCounts[I] == RegisterCount) {
      RIndex = I;
      Found = true;
    }
  if (!Found) {
    std::printf("register count %u was not measured\n", RegisterCount);
    return;
  }

  std::vector<std::string> Headers{"benchmark"};
  for (size_t A = 0; A + 1 < Data.AllocatorNames.size(); ++A)
    Headers.push_back(Data.AllocatorNames[A]);
  Table T(std::move(Headers));

  size_t Opt = optimalIndex(Data);
  const ProgramCosts &OptCosts = Data.Costs[Opt][RIndex];
  for (size_t PIdx = 0; PIdx < OptCosts.Programs.size(); ++PIdx) {
    std::vector<std::string> Row{OptCosts.Programs[PIdx]};
    for (size_t A = 0; A + 1 < Data.AllocatorNames.size(); ++A) {
      Weight Cost = Data.Costs[A][RIndex].Cost[PIdx];
      Weight OptCost = OptCosts.Cost[PIdx];
      Row.push_back(OptCost == 0
                        ? (Cost == 0 ? "1.000" : "inf")
                        : Table::num(static_cast<double>(Cost) /
                                     static_cast<double>(OptCost)));
    }
    T.addRow(std::move(Row));
  }
  T.print(stdout);
  printFooter(Data);
}
