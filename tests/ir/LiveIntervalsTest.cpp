//===- tests/ir/LiveIntervalsTest.cpp - Live interval tests ---------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/LiveIntervals.h"

#include "IrTestHelpers.h"
#include "ir/ProgramGen.h"
#include "ir/Target.h"
#include "ir/Interference.h"

#include <gtest/gtest.h>

using namespace layra;
using namespace layra::irtest;

TEST(LiveIntervalsTest, StraightLineIntervals) {
  Function F("f");
  BlockId B = F.makeBlock();
  ValueId A = F.makeValue("a"), Bv = F.makeValue("b"), C = F.makeValue("c");
  op(F, B, A);          // point 1
  op(F, B, Bv);         // point 2
  op(F, B, C, {A, Bv}); // point 3
  ret(F, B, {C});       // point 4

  Liveness Live(F);
  std::vector<Weight> Costs(F.numValues(), 1);
  LiveIntervalTable Table = computeLiveIntervals(F, Live, Costs);
  ASSERT_EQ(Table.Intervals.size(), 3u);
  // Sorted by start: a [1,3], b [2,3], c [3,4].
  EXPECT_EQ(Table.Intervals[0].V, A);
  EXPECT_EQ(Table.Intervals[0].Start, 1u);
  EXPECT_EQ(Table.Intervals[0].End, 3u);
  EXPECT_EQ(Table.Intervals[1].V, Bv);
  EXPECT_EQ(Table.Intervals[2].V, C);
  EXPECT_EQ(Table.Intervals[2].End, 4u);
  EXPECT_EQ(Table.maxOverlap(), 3u); // At point 3 all three touch.
}

TEST(LiveIntervalsTest, IntervalsCoverBlockBoundaries) {
  Function F("f");
  BlockId Entry = F.makeBlock(), Next = F.makeBlock();
  ValueId A = F.makeValue("a"), C = F.makeValue("c");
  op(F, Entry, A);
  br(F, Entry, A);
  op(F, Next, C, {A});
  ret(F, Next, {C});
  F.addEdge(Entry, Next);

  Liveness Live(F);
  std::vector<Weight> Costs(F.numValues(), 1);
  LiveIntervalTable Table = computeLiveIntervals(F, Live, Costs);
  // a spans from its def in entry into the next block.
  const LiveInterval &IA = Table.Intervals[0];
  EXPECT_EQ(IA.V, A);
  EXPECT_LT(IA.Start, Table.BlockStart[Next]);
  EXPECT_GT(IA.End, Table.BlockStart[Next]);
}

TEST(LiveIntervalsTest, FlatteningCoversHoles) {
  // Classic linear-scan conservatism: a value dead across a region still
  // occupies its flattened interval there.  v defined in entry, unused in a
  // long middle block, used in exit: the interval covers the middle.
  Function F("f");
  BlockId Entry = F.makeBlock(), Mid = F.makeBlock(), Exit = F.makeBlock();
  ValueId V = F.makeValue("v"), T = F.makeValue("t");
  op(F, Entry, V);
  br(F, Entry, V);
  op(F, Mid, T);
  br(F, Mid, T);
  ret(F, Exit, {V});
  F.addEdge(Entry, Mid);
  F.addEdge(Mid, Exit);

  Liveness Live(F);
  std::vector<Weight> Costs(F.numValues(), 1);
  LiveIntervalTable Table = computeLiveIntervals(F, Live, Costs);
  const LiveInterval *IV = nullptr;
  for (const LiveInterval &I : Table.Intervals)
    if (I.V == V)
      IV = &I;
  ASSERT_NE(IV, nullptr);
  // Covers the middle block entirely.
  EXPECT_LE(IV->Start, Table.BlockStart[Mid]);
  EXPECT_GE(IV->End, Table.BlockStart[Exit]);
  // And overlaps t even though they are never simultaneously live.
  for (const LiveInterval &I : Table.Intervals)
    if (I.V == T) {
      EXPECT_TRUE(IV->overlaps(I));
    }
}

TEST(LiveIntervalsTest, MaxOverlapUpperBoundsMaxLive) {
  // Flattened intervals over-approximate liveness, so interval pressure is
  // always >= MaxLive.
  Rng R(31415);
  for (int Round = 0; Round < 15; ++Round) {
    ProgramGenOptions Opt;
    Opt.NumVars = 8 + static_cast<unsigned>(R.nextBelow(16));
    Function F = generateFunction(R, Opt);
    Liveness Live(F);
    std::vector<Weight> Costs = computeSpillCosts(F, ST231);
    LiveIntervalTable Table = computeLiveIntervals(F, Live, Costs);
    EXPECT_GE(Table.maxOverlap(), Live.maxLive(F)) << "round " << Round;
  }
}

TEST(LiveIntervalsTest, SortedByStart) {
  Rng R(27182);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  Liveness Live(F);
  std::vector<Weight> Costs = computeSpillCosts(F, ST231);
  LiveIntervalTable Table = computeLiveIntervals(F, Live, Costs);
  for (size_t I = 1; I < Table.Intervals.size(); ++I)
    EXPECT_LE(Table.Intervals[I - 1].Start, Table.Intervals[I].Start);
}
