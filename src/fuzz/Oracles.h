//===- fuzz/Oracles.h - Differential oracle registry ------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle registry: every invariant the test suite checks ad hoc --
/// heuristics never beat a proven exact optimum, assignments respect
/// interference and per-class budgets, workspace reuse is byte-pure, the
/// allocation-free problem build equals its incremental reference,
/// the batch driver's cache is report-transparent, a register sweep that
/// shares round 0 equals direct pipeline runs, the allocation server
/// answers byte-identically to a direct driver run -- as named, reusable
/// checks over one FuzzCase.  `layra-fuzz` sweeps them over mutated
/// cases; tests/fuzz/OracleTest.cpp pins each one on known-good and
/// known-violating inputs.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_FUZZ_ORACLES_H
#define LAYRA_FUZZ_ORACLES_H

#include "fuzz/FuzzCase.h"

#include <string>
#include <vector>

namespace layra {

class Client;
class SolverWorkspace;

/// Verdict of one oracle over one case.
struct OracleOutcome {
  bool Ok = true;
  /// One-line failure description (empty when Ok).
  std::string Detail;
};

/// Everything an oracle may consult.  The session prepares the SSA
/// conversion once per case; oracles never mutate the case.
struct OracleContext {
  const FuzzCase *Case = nullptr;
  const TargetDesc *Target = nullptr;
  /// Case->F converted to strict SSA (oracles needing chordal instances
  /// build problems from this).
  const Function *Ssa = nullptr;
  /// Optional shared scratch; the workspace-purity oracle requires it.
  SolverWorkspace *WS = nullptr;
  /// Connection to an in-process allocation server; null disables the
  /// serve-vs-direct oracle (it reports Ok without checking).
  Client *ServeClient = nullptr;
  /// Pool width of that server -- the direct reference run must match or
  /// the reports' "threads" field trivially differs.
  unsigned ServeThreads = 2;
  /// Debug flag (`layra-fuzz --break-oracle=NAME`): the named oracle
  /// additionally fails whenever the function contains a copy
  /// instruction.  A deterministic planted bug, used to exercise the
  /// minimizer and the crash-report round trip end to end.
  std::string BreakOracle;
};

/// One registered oracle.
struct Oracle {
  const char *Name;
  const char *Description;
  OracleOutcome (*Run)(const OracleContext &);
  /// True for oracles that need ServeClient; they pass vacuously without
  /// one and `layra-fuzz` only enables them under --serve-oracle.
  bool NeedsServer = false;
};

/// All oracles, in a stable order:
///   heuristic-vs-exact, assignment-valid, baseline-backends,
///   workspace-pure, build-vs-reference, parse-roundtrip,
///   cache-transparent, metrics-quiet, serve-direct, budget-sweep.
const std::vector<Oracle> &oracleRegistry();

/// Lookup by name; nullptr when unknown.
const Oracle *findOracle(const std::string &Name);

/// Runs \p O on \p Ctx, applying the planted --break-oracle failure when
/// Ctx.BreakOracle names it (see OracleContext::BreakOracle).
OracleOutcome runOracle(const Oracle &O, const OracleContext &Ctx);

} // namespace layra

#endif // LAYRA_FUZZ_ORACLES_H
