//===- ir/SsaBuilder.h - SSA construction -----------------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pruned-SSA construction (Cytron et al. phi placement on iterated
/// dominance frontiers, restricted to live-in variables, followed by
/// dominator-tree renaming).  The paper's chordal evaluation consumes
/// interference graphs of *strict SSA* programs; this pass produces them
/// from the non-SSA functions the program generator emits.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_IR_SSABUILDER_H
#define LAYRA_IR_SSABUILDER_H

#include "ir/Program.h"

#include <vector>

namespace layra {

/// Result of SSA conversion.
struct SsaConversion {
  /// The converted function (fresh value ids, phis inserted).
  Function Ssa;
  /// OriginalOf[NewValue] = the pre-SSA variable it renames.
  std::vector<ValueId> OriginalOf;
  /// Number of phi instructions inserted.
  unsigned NumPhis = 0;
};

/// Converts \p F (any verified, phi-free function) to pruned SSA form.
/// Input that already has phis is a fatal error: it is SSA already.
///
/// Block structure and edges are preserved (same BlockIds, same order);
/// every value is renamed.  Uses reached by no definition become kNoValue
/// phi operands (our generators never produce such paths; hand-written IR
/// may).  The result satisfies verifyFunction(Ssa, /*ExpectSsa=*/true).
SsaConversion convertToSsa(const Function &F);

} // namespace layra

#endif // LAYRA_IR_SSABUILDER_H
