//===- tests/ir/DominatorsTest.cpp - Dominator tree tests -----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"

#include "IrTestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace layra;
using namespace layra::irtest;

namespace {
/// Diamond: entry -> {left, right} -> merge.
struct Diamond {
  Function F{"diamond"};
  BlockId Entry, Left, Right, Merge;
  ValueId C;

  Diamond() {
    Entry = F.makeBlock("entry");
    Left = F.makeBlock("left");
    Right = F.makeBlock("right");
    Merge = F.makeBlock("merge");
    C = F.makeValue("c");
    op(F, Entry, C);
    br(F, Entry, C);
    br(F, Left, C);
    br(F, Right, C);
    ret(F, Merge, {C});
    F.addEdge(Entry, Left);
    F.addEdge(Entry, Right);
    F.addEdge(Left, Merge);
    F.addEdge(Right, Merge);
  }
};
} // namespace

TEST(DominatorsTest, DiamondIdoms) {
  Diamond D;
  DominatorTree Dom(D.F);
  EXPECT_EQ(Dom.idom(D.Left), D.Entry);
  EXPECT_EQ(Dom.idom(D.Right), D.Entry);
  EXPECT_EQ(Dom.idom(D.Merge), D.Entry); // Not left or right.
  EXPECT_EQ(Dom.idom(D.Entry), kNoBlock);
}

TEST(DominatorsTest, DominatesIsReflexiveAndRespectsPaths) {
  Diamond D;
  DominatorTree Dom(D.F);
  EXPECT_TRUE(Dom.dominates(D.Entry, D.Merge));
  EXPECT_TRUE(Dom.dominates(D.Left, D.Left));
  EXPECT_FALSE(Dom.dominates(D.Left, D.Merge));
  EXPECT_FALSE(Dom.dominates(D.Merge, D.Entry));
}

TEST(DominatorsTest, DiamondFrontiers) {
  Diamond D;
  DominatorTree Dom(D.F);
  // Left and Right have frontier {Merge}; Entry and Merge have none.
  EXPECT_EQ(Dom.dominanceFrontier(D.Left), std::vector<BlockId>{D.Merge});
  EXPECT_EQ(Dom.dominanceFrontier(D.Right), std::vector<BlockId>{D.Merge});
  EXPECT_TRUE(Dom.dominanceFrontier(D.Entry).empty());
  EXPECT_TRUE(Dom.dominanceFrontier(D.Merge).empty());
}

TEST(DominatorsTest, LoopHeaderDominatesBodyAndIsInOwnFrontier) {
  // entry -> header; header -> body -> header (back edge); header -> exit.
  Function F("loop");
  BlockId Entry = F.makeBlock("entry");
  BlockId Header = F.makeBlock("header");
  BlockId Body = F.makeBlock("body");
  BlockId Exit = F.makeBlock("exit");
  ValueId C = F.makeValue("c");
  op(F, Entry, C);
  br(F, Entry, C);
  br(F, Header, C);
  br(F, Body, C);
  ret(F, Exit, {C});
  F.addEdge(Entry, Header);
  F.addEdge(Header, Body);
  F.addEdge(Header, Exit);
  F.addEdge(Body, Header);

  DominatorTree Dom(F);
  EXPECT_TRUE(Dom.dominates(Header, Body));
  EXPECT_TRUE(Dom.dominates(Header, Exit));
  EXPECT_EQ(Dom.idom(Body), Header);
  // The back edge puts Header into its own frontier and Body's frontier.
  std::vector<BlockId> HeaderFrontier = Dom.dominanceFrontier(Header);
  EXPECT_NE(std::find(HeaderFrontier.begin(), HeaderFrontier.end(), Header),
            HeaderFrontier.end());
  std::vector<BlockId> BodyFrontier = Dom.dominanceFrontier(Body);
  EXPECT_EQ(BodyFrontier, std::vector<BlockId>{Header});
}

TEST(DominatorsTest, UnreachableBlocksAreReported) {
  Function F("unreach");
  BlockId Entry = F.makeBlock();
  BlockId Orphan = F.makeBlock();
  ValueId C = F.makeValue();
  op(F, Entry, C);
  ret(F, Entry, {C});
  ret(F, Orphan, {});
  DominatorTree Dom(F);
  EXPECT_TRUE(Dom.isReachable(Entry));
  EXPECT_FALSE(Dom.isReachable(Orphan));
}

TEST(DominatorsTest, ReversePostOrderStartsAtEntryAndRespectsEdges) {
  Diamond D;
  DominatorTree Dom(D.F);
  const std::vector<BlockId> &Rpo = Dom.reversePostOrder();
  ASSERT_EQ(Rpo.size(), 4u);
  EXPECT_EQ(Rpo.front(), D.Entry);
  EXPECT_EQ(Rpo.back(), D.Merge);
}
