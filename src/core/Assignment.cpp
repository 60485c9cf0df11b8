//===- core/Assignment.cpp - Register assignment (coloring) ----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/Assignment.h"

#include "core/Coalescing.h"

using namespace layra;

Assignment layra::assignRegisters(const AllocationProblem &P,
                                  const std::vector<char> &Allocated) {
  return assignRegistersBiased(P, Allocated, {});
}
