//===- ir/Dominators.cpp - Dominator tree and frontiers -------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"

#include <algorithm>

using namespace layra;

DominatorTree::DominatorTree(const Function &Func) : F(Func) {
  unsigned N = F.numBlocks();
  Rpo.assign(N, ~0u);
  Idom.assign(N, kNoBlock);
  Kids.resize(N);

  // Iterative post-order DFS from the entry.
  std::vector<BlockId> Post;
  Post.reserve(N);
  {
    std::vector<char> Visited(N, 0);
    // Stack of (block, next successor index).
    std::vector<std::pair<BlockId, unsigned>> Stack;
    Stack.push_back({F.entry(), 0});
    Visited[F.entry()] = 1;
    while (!Stack.empty()) {
      auto &[B, NextSucc] = Stack.back();
      const std::vector<BlockId> &Succs = F.block(B).Succs;
      if (NextSucc < Succs.size()) {
        BlockId S = Succs[NextSucc++];
        if (!Visited[S]) {
          Visited[S] = 1;
          Stack.push_back({S, 0});
        }
        continue;
      }
      Post.push_back(B);
      Stack.pop_back();
    }
  }
  RpoBlocks.assign(Post.rbegin(), Post.rend());
  for (unsigned I = 0; I < RpoBlocks.size(); ++I)
    Rpo[RpoBlocks[I]] = I;

  // Cooper-Harvey-Kennedy iteration to a fixed point.
  auto Intersect = [&](BlockId A, BlockId B) {
    while (A != B) {
      while (Rpo[A] > Rpo[B])
        A = Idom[A];
      while (Rpo[B] > Rpo[A])
        B = Idom[B];
    }
    return A;
  };

  Idom[F.entry()] = F.entry(); // Temporary self-idom to seed the iteration.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : RpoBlocks) {
      if (B == F.entry())
        continue;
      BlockId NewIdom = kNoBlock;
      for (BlockId P : F.block(B).Preds) {
        if (!isReachable(P) || Idom[P] == kNoBlock)
          continue;
        NewIdom = NewIdom == kNoBlock ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != kNoBlock && Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
  Idom[F.entry()] = kNoBlock;

  for (BlockId B : RpoBlocks)
    if (B != F.entry() && Idom[B] != kNoBlock)
      Kids[Idom[B]].push_back(B);

  // DFS numbering of the dominator tree for O(1) dominance queries.
  DfsIn.assign(N, 0);
  DfsOut.assign(N, 0);
  unsigned Clock = 0;
  std::vector<std::pair<BlockId, unsigned>> Stack;
  Stack.push_back({F.entry(), 0});
  DfsIn[F.entry()] = ++Clock;
  while (!Stack.empty()) {
    auto &[B, NextKid] = Stack.back();
    if (NextKid < Kids[B].size()) {
      BlockId K = Kids[B][NextKid++];
      DfsIn[K] = ++Clock;
      Stack.push_back({K, 0});
      continue;
    }
    DfsOut[B] = ++Clock;
    Stack.pop_back();
  }
}

bool DominatorTree::dominates(BlockId A, BlockId B) const {
  assert(isReachable(A) && isReachable(B) && "dominance of unreachable block");
  return DfsIn[A] <= DfsIn[B] && DfsOut[B] <= DfsOut[A];
}

void DominatorTree::computeFrontiers() {
  // Cooper-Harvey-Kennedy dominance-frontier computation: for each join
  // point, walk up from each predecessor to the idom.
  Frontiers.assign(F.numBlocks(), {});
  for (BlockId B : RpoBlocks) {
    const std::vector<BlockId> &Preds = F.block(B).Preds;
    if (Preds.size() < 2)
      continue;
    for (BlockId P : Preds) {
      if (!isReachable(P))
        continue;
      BlockId Runner = P;
      while (Runner != Idom[B]) {
        std::vector<BlockId> &Fr = Frontiers[Runner];
        if (std::find(Fr.begin(), Fr.end(), B) == Fr.end())
          Fr.push_back(B);
        Runner = Idom[Runner];
        assert(Runner != kNoBlock && "frontier walk escaped the entry");
      }
    }
  }
  FrontiersComputed = true;
}

const std::vector<BlockId> &DominatorTree::dominanceFrontier(BlockId B) {
  assert(isReachable(B) && "frontier of unreachable block");
  if (!FrontiersComputed)
    computeFrontiers();
  return Frontiers[B];
}
