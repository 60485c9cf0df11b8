//===- ir/Dominators.h - Dominator tree and frontiers -----------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree (Cooper-Harvey-Kennedy "A Simple, Fast Dominance
/// Algorithm") and dominance frontiers.  The dominance tree is the backbone
/// of both SSA construction and the chordality of SSA interference graphs:
/// live ranges of strict-SSA values are subtrees of this tree.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_IR_DOMINATORS_H
#define LAYRA_IR_DOMINATORS_H

#include "ir/Program.h"

#include <vector>

namespace layra {

/// Immediate-dominator tree of a function's CFG.
///
/// Unreachable blocks have no dominator information; isReachable() reports
/// them and every query asserts reachability.
class DominatorTree {
public:
  /// Builds the dominator tree of \p F.
  explicit DominatorTree(const Function &F);

  bool isReachable(BlockId B) const { return Rpo[B] != ~0u; }

  /// Immediate dominator; the entry block returns kNoBlock.
  BlockId idom(BlockId B) const {
    assert(isReachable(B) && "idom of unreachable block");
    return Idom[B];
  }

  /// True if \p A dominates \p B (reflexive).
  bool dominates(BlockId A, BlockId B) const;

  /// Children in the dominator tree.
  const std::vector<BlockId> &children(BlockId B) const {
    assert(B < Kids.size() && "block id out of range");
    return Kids[B];
  }

  /// Blocks in reverse post order (reachable blocks only).
  const std::vector<BlockId> &reversePostOrder() const { return RpoBlocks; }

  /// Dominance frontier of every block (computed lazily on first query).
  const std::vector<BlockId> &dominanceFrontier(BlockId B);

private:
  void computeFrontiers();

  const Function &F;
  std::vector<unsigned> Rpo;        // Block -> RPO index, ~0u if unreachable.
  std::vector<BlockId> RpoBlocks;   // RPO index -> block.
  std::vector<BlockId> Idom;        // Block -> immediate dominator.
  std::vector<std::vector<BlockId>> Kids;
  std::vector<unsigned> DfsIn, DfsOut; // Dominator-tree intervals.
  std::vector<std::vector<BlockId>> Frontiers;
  bool FrontiersComputed = false;
};

} // namespace layra

#endif // LAYRA_IR_DOMINATORS_H
