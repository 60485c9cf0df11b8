//===- ir/Liveness.h - Iterative backward liveness --------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-block live-in/live-out sets via the classic backward dataflow fixed
/// point, with SSA-aware phi semantics: a phi's operand is live out of the
/// corresponding predecessor (not live into the phi's block), and a phi's
/// result is defined at the top of its block.  The block summaries
/// (upward-exposed uses, kills, phi defs, and phi uses per incoming edge)
/// are flat word arrays, and each sweep of the fixed point is one fused
/// word loop per CFG edge and per block.  fuzz/BuildReference.h keeps the
/// per-block bit-vector dataflow as the reference.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_IR_LIVENESS_H
#define LAYRA_IR_LIVENESS_H

#include "ir/Program.h"
#include "support/BitVector.h"

#include <vector>

namespace layra {

/// Liveness analysis result over a function.
class Liveness {
public:
  /// Runs the analysis on \p F (works for SSA and non-SSA functions alike).
  explicit Liveness(const Function &F);

  const BitVector &liveIn(BlockId B) const {
    assert(B < LiveInSets.size() && "block id out of range");
    return LiveInSets[B];
  }
  const BitVector &liveOut(BlockId B) const {
    assert(B < LiveOutSets.size() && "block id out of range");
    return LiveOutSets[B];
  }

  /// Walks block \p B backwards, invoking \p Visit(InstrIndex, Live) just
  /// *before* each instruction's effect is applied (i.e. Live is the set
  /// live immediately after the instruction), then updating Live across it.
  /// Phi instructions at the top are skipped (their defs/uses live at block
  /// boundaries); after the walk Live equals liveIn(B) minus phi defs.
  ///
  /// maxLive() and pressureAfter() are built on it.
  template <typename VisitorT>
  void walkBlockBackward(const Function &F, BlockId B, VisitorT Visit) const {
    BitVector Live = liveOut(B);
    const BasicBlock &BB = F.block(B);
    for (unsigned I = static_cast<unsigned>(BB.Instrs.size()); I-- > 0;) {
      const Instruction &Instr = BB.Instrs[I];
      if (Instr.isPhi())
        break; // Phis are block-boundary effects, handled by the caller.
      Visit(I, static_cast<const BitVector &>(Live));
      for (ValueId V : Instr.Defs)
        Live.reset(V);
      for (ValueId V : Instr.Uses)
        if (V != kNoValue)
          Live.set(V);
    }
  }

  /// The maximum number of simultaneously live values over every program
  /// point of \p F (paper: MaxLive).  Points are block boundaries and the
  /// points between consecutive instructions; values defined and never used
  /// count as live at their definition point.
  unsigned maxLive(const Function &F) const;

  /// Register pressure right after instruction \p I of block \p B.
  /// Convenience for tests; prefer walkBlockBackward in algorithms.
  unsigned pressureAfter(const Function &F, BlockId B, unsigned I) const;

private:
  std::vector<BitVector> LiveInSets;
  std::vector<BitVector> LiveOutSets;
};

} // namespace layra

#endif // LAYRA_IR_LIVENESS_H
