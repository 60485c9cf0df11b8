//===- tests/integration/MotivatingExampleTest.cpp - Paper Figure 1 -------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 1: a program whose loop keeps at most three values
/// live.  A pressure-aware (decoupled) allocator with R = 3 never spills the
/// loop values (a2, h1..h6) -- only the cheap excess outside the loop --
/// while a degree-guided allocator is tempted by a2's many heavy neighbors.
///
//===----------------------------------------------------------------------===//

#include "alloc/Allocator.h"
#include "alloc/OptimalBnB.h"
#include "core/Layered.h"
#include "core/ProblemBuilder.h"
#include "ir/LoopInfo.h"
#include "ir/Liveness.h"
#include "ir/SsaBuilder.h"

#include "../ir/IrTestHelpers.h"

#include <gtest/gtest.h>

using namespace layra;
using namespace layra::irtest;

namespace {
/// Builds the Figure 1 program (non-SSA, as drawn).
///
///   entry: a, b, c, d defined; branch to left or right
///   left1: t = c+1; e = b+1; f = e+1
///   left2: g = d+e; use d, e, f, g; ret
///   pre:   a2 = a (copy); h1 = a2+1; h2 = h1+1
///   loop:  h3 = h1+1; h4 = h2+1; h5 = h3+1; h6 = h4+1;
///          h1 = h5+1; h2 = h6+1; use a2; branch back or out
///   done:  ret
struct Figure1 {
  Function F{"figure1"};
  BlockId Entry, Left1, Left2, Pre, Loop, Done;
  ValueId A, B, C, D, E, Fv, G, T, A2;
  ValueId H[7]; // 1-based use: H[1..6].

  Figure1() {
    Entry = F.makeBlock("entry");
    Left1 = F.makeBlock("left1");
    Left2 = F.makeBlock("left2");
    Pre = F.makeBlock("pre");
    Loop = F.makeBlock("loop");
    Done = F.makeBlock("done");
    A = F.makeValue("a");
    B = F.makeValue("b");
    C = F.makeValue("c");
    D = F.makeValue("d");
    E = F.makeValue("e");
    Fv = F.makeValue("f");
    G = F.makeValue("g");
    T = F.makeValue("t");
    A2 = F.makeValue("a2");
    for (int I = 1; I <= 6; ++I)
      H[I] = F.makeValue("h" + std::to_string(I));

    op(F, Entry, A);
    op(F, Entry, B);
    op(F, Entry, C);
    op(F, Entry, D);
    br(F, Entry, A);
    F.addEdge(Entry, Left1);
    F.addEdge(Entry, Pre);

    op(F, Left1, T, {C});
    op(F, Left1, E, {B});
    op(F, Left1, Fv, {E});
    br(F, Left1, T);
    F.addEdge(Left1, Left2);

    op(F, Left2, G, {D, E});
    op(F, Left2, T, {D, E});
    op(F, Left2, T, {Fv, G});
    ret(F, Left2, {T});

    copy(F, Pre, A2, A);
    op(F, Pre, H[1], {A2});
    op(F, Pre, H[2], {H[1]});
    br(F, Pre, H[2]);
    F.addEdge(Pre, Loop);

    op(F, Loop, H[3], {H[1], A2}); // "... a2": a2 read inside the loop.
    op(F, Loop, H[4], {H[2]});
    op(F, Loop, H[5], {H[3]});
    op(F, Loop, H[6], {H[4]});
    op(F, Loop, H[1], {H[5]});
    op(F, Loop, H[2], {H[6]});
    br(F, Loop, H[2]);
    F.addEdge(Loop, Loop);
    F.addEdge(Loop, Done);

    ret(F, Done, {});

    DominatorTree Dom(F);
    LoopInfo Loops(F, Dom);
    Loops.annotate(F);
  }
};
} // namespace

TEST(MotivatingExampleTest, LoopPressureIsThree) {
  Figure1 Fig;
  SsaConversion Conv = convertToSsa(Fig.F);
  Liveness Live(Conv.Ssa);
  // Inside the loop at most 3 values are live simultaneously (paper: "there
  // are no more than three variables simultaneously live inside the loop").
  unsigned LoopPressure = 0;
  Live.walkBlockBackward(Conv.Ssa, Fig.Loop,
                         [&](unsigned, const BitVector &L) {
                           LoopPressure = std::max(
                               LoopPressure,
                               static_cast<unsigned>(L.count()));
                         });
  EXPECT_LE(LoopPressure, 3u);
  // While the entry keeps four values live at its end.
  EXPECT_EQ(Live.liveOut(Fig.Entry).count(), 4u);
}

TEST(MotivatingExampleTest, PressureAwareAllocationSparesTheLoop) {
  Figure1 Fig;
  SsaConversion Conv = convertToSsa(Fig.F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {3});

  AllocationResult Best = layeredAllocate(P, LayeredOptions::bfpl());
  OptimalBnBAllocator BnB;
  AllocationResult Optimal = BnB.allocate(P);
  ASSERT_TRUE(Optimal.Proven);

  // The layered allocation is optimal here.
  EXPECT_EQ(Best.SpillCost, Optimal.SpillCost);
  EXPECT_GT(Best.SpillCost, 0); // Entry pressure 4 > 3 forces one spill.

  // No loop value (h*, a2) is spilled: spilling them is useless for the
  // loop, whose pressure already fits -- the paper's whole point.
  for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
    if (Best.Allocated[V])
      continue;
    const std::string &Name = Conv.Ssa.valueName(V);
    EXPECT_NE(Name.substr(0, 1), "h")
        << "spilled loop value " << Name;
    EXPECT_NE(Name.substr(0, 2), "a2")
        << "spilled loop-carried value " << Name;
  }
}

TEST(MotivatingExampleTest, GraphColoringIsNoBetter) {
  Figure1 Fig;
  SsaConversion Conv = convertToSsa(Fig.F);
  AllocationProblem P = buildSsaProblem(Conv.Ssa, ST231, {3});
  AllocationResult Gc = makeAllocator("gc")->allocate(P);
  AllocationResult Best = layeredAllocate(P, LayeredOptions::bfpl());
  EXPECT_GE(Gc.SpillCost, Best.SpillCost);
}
