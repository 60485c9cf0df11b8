//===- Checker.h - Output checks independent of the library -----*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark treats as a correct output.  Every check returns an
/// empty string on success and a one-line reason otherwise; the caller
/// counts it in the run's failure tally.
///
/// checkAssignment recomputes liveness over the rewritten IR with its own
/// dataflow (not ir/Liveness), so a bug shared by the allocator and the
/// library's liveness cannot vouch for itself.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKER_H
#define PERFBENCH_CHECKER_H

#include "alloc/Pipeline.h"
#include "driver/BatchDriver.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Validates a final register assignment of \p F:
///  - no two values of one class that are live at the same point (or
///    defined where the other is live) hold the same register;
///  - every register index is below its class budget in \p Budgets;
///  - when \p Fits, every value that occurs in \p F holds a register.
std::string checkAssignment(const layra::Function &F,
                            const layra::Assignment &A,
                            const std::vector<unsigned> &Budgets, bool Fits);

/// What the benchmark keeps of a validated pipeline result to compare
/// later runs of the same task against: every outcome field, the
/// assignment, and a hash of the rewritten IR.
struct ResultDigest {
  layra::Weight SpillCost = 0;
  layra::Weight CopyCost = 0;
  unsigned Loads = 0, Stores = 0, Slots = 0, Folded = 0;
  unsigned Rounds = 0, MaxLive = 0, RegistersUsed = 0;
  bool Fits = false, Success = false;
  std::vector<unsigned> RegisterOf;
  std::vector<layra::RegClassId> ClassOf;
  unsigned RewrittenValues = 0;
  uint64_t RewrittenHash = 0;

  static ResultDigest of(const layra::PipelineResult &R);
};

/// First field in which two results differ; empty when equal.
std::string diffResults(const ResultDigest &Got, const ResultDigest &Want);

/// First field in which a driver task outcome differs from \p Want.
std::string diffOutcome(const layra::TaskOutcome &Got,
                        const ResultDigest &Want);

/// Removes the trailing "trace" member a traced allocation response
/// carries after every report member; other payloads are returned as is.
std::string stripTraceEcho(const std::string &Response);

/// Checks a server response against the bytes a direct BatchDriver run
/// serialized for the same request.
std::string checkResponse(const std::string &Response,
                          const std::string &Expected);

} // namespace perfbench

#endif // PERFBENCH_CHECKER_H
