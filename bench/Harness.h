//===- bench/Harness.h - Paper-figure benchmark harness ---------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared driver for the per-figure benchmark binaries.  Each figure of the
/// paper's evaluation (§6) is one executable that configures a FigureSpec
/// and calls the matching run*() entry point; the output is the same series
/// the paper plots, normalized to the exact Optimal baseline.
///
/// Normalization (DESIGN.md §3): aggregate figures report
/// sum(cost_A)/sum(cost_Optimal) per register count with Optimal == 1.000;
/// distribution figures report the five-number summary of per-program
/// ratios cost_A(p)/cost_Opt(p).
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_BENCH_HARNESS_H
#define LAYRA_BENCH_HARNESS_H

#include "ir/Target.h"
#include "suites/Suites.h"

#include <string>
#include <vector>

namespace layra {
namespace bench {

/// Configuration of one figure reproduction.
struct FigureSpec {
  /// Figure identifier, e.g. "Figure 8".
  std::string Id;
  /// Human-readable description printed as the header.
  std::string Title;
  /// Suite to evaluate ("spec2000int", "eembc", "lao-kernels", "specjvm98").
  std::string SuiteName;
  /// Target cost model.
  TargetDesc Target = ST231;
  /// Register counts to sweep.
  std::vector<unsigned> RegisterCounts;
  /// Allocators to compare (names from makeAllocator, "optimal" implied;
  /// it runs under OptimalBnBAllocator's own node budget).
  std::vector<std::string> Allocators;
  /// true: SSA/chordal methodology (§6.1); false: non-SSA/general (§6.2).
  bool ChordalPipeline = true;
  /// Batch-driver thread count; 0 = hardware concurrency.  The figure data
  /// is deterministic, so any thread count reproduces the same tables.
  unsigned Threads = 0;
};

/// Per-program spill costs of one allocator at one register count.
struct ProgramCosts {
  std::vector<std::string> Programs;       // Program names (stable order).
  std::vector<Weight> Cost;                // Summed over the program's functions.
};

/// All measurements for one figure: costs[allocator][register-index].
struct FigureData {
  FigureSpec Spec;
  std::vector<std::string> AllocatorNames; // Spec.Allocators + "optimal".
  // Indexed [allocator][register index] -> per-program costs.
  std::vector<std::vector<ProgramCosts>> Costs;
  /// Optimality proof coverage of the "optimal" baseline.
  unsigned OptimalProven = 0, OptimalTotal = 0;
};

/// Runs every allocator of \p Spec (plus "optimal") over the suite, batched
/// through the parallel driver (BatchDriver::solveProblems(Problems,
/// AllocatorName, Error), driver/BatchDriver.h).
FigureData measureFigure(const FigureSpec &Spec);

/// Parses an optional `--threads=N` argument for the per-figure binaries;
/// returns 0 (hardware concurrency) when absent.
unsigned parseThreadsFlag(int Argc, char **Argv);

/// Prints the aggregate-ratio table (paper Figures 8, 9, 10, 14):
/// one row per allocator, one column per register count, entries
/// sum(cost)/sum(optimal cost).
void printAggregateFigure(const FigureData &Data);

/// Prints the per-program-ratio distribution table (paper Figures 11-13):
/// rows are (allocator, register count), columns the box-plot quantiles.
void printDistributionFigure(const FigureData &Data);

/// Prints the per-benchmark table at a single register count (Figure 15).
void printPerProgramFigure(const FigureData &Data, unsigned RegisterCount);

} // namespace bench
} // namespace layra

#endif // LAYRA_BENCH_HARNESS_H
