//===- tests/integration/TextualPipelineTest.cpp - parse -> allocate ------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end integration over the textual front door: a function written
/// in the IR syntax (as a user of the library would provide it) goes
/// through parse -> verify -> allocation problem -> every allocator ->
/// pipeline with spill-code materialisation, on every target.
///
//===----------------------------------------------------------------------===//

#include "alloc/Allocator.h"
#include "alloc/BruteForce.h"
#include "alloc/Pipeline.h"
#include "core/ProblemBuilder.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace layra;

namespace {
/// The same loop kernel shipped as examples/sample.lir.
const char *kSample = R"(function sample {
entry:  ; depth=0 freq=1
  %n = op
  %acc0 = op %n
  %bias = op %n
  br %n
  ; succs=loop,exit
loop:  ; depth=1 freq=10 preds=entry,loop
  %acc = phi %acc0, %acc2
  %i = phi %n, %i2
  %t = op %i, %bias
  %acc2 = op %acc, %t
  %i2 = op %i
  br %i2
  ; succs=loop,exit
exit:  ; depth=0 freq=1 preds=entry,loop
  %r = phi %acc0, %acc2
  ret %r
}
)";
} // namespace

TEST(TextualPipelineTest, SampleParsesAndVerifies) {
  ParsedFunction P = parseFunction(kSample);
  ASSERT_TRUE(P.Ok) << P.Error << " at line " << P.Line;
  std::string Error;
  EXPECT_TRUE(verifyFunction(P.F, /*ExpectSsa=*/true, &Error)) << Error;
  EXPECT_EQ(P.F.numBlocks(), 3u);
  EXPECT_EQ(P.F.block(1).Frequency, 10);
}

TEST(TextualPipelineTest, EveryAllocatorHandlesTheParsedFunction) {
  ParsedFunction P = parseFunction(kSample);
  ASSERT_TRUE(P.Ok) << P.Error;
  for (unsigned Regs : {1u, 2u, 3u, 4u}) {
    AllocationProblem Problem = buildSsaProblem(P.F, ST231, {Regs});
    for (const std::string &Name : allAllocatorNames()) {
      std::unique_ptr<Allocator> A = makeAllocator(Name);
      ASSERT_NE(A, nullptr) << Name;
      AllocationResult Result = A->allocate(Problem);
      EXPECT_TRUE(isFeasibleAllocation(Problem, Result.Allocated))
          << Name << " at R=" << Regs;
    }
    // The exhaustive solver is not registered by name; check it directly.
    AllocationResult Brute = BruteForceAllocator().allocate(Problem);
    EXPECT_TRUE(isFeasibleAllocation(Problem, Brute.Allocated))
        << "brute at R=" << Regs;
  }
}

TEST(TextualPipelineTest, PipelineMaterialisesOnEveryTarget) {
  for (const TargetDesc *Target : {&ST231, &ARMv7, &X86_64}) {
    ParsedFunction P = parseFunction(kSample);
    ASSERT_TRUE(P.Ok) << P.Error;
    PipelineResult Out = runAllocationPipeline(P.F, *Target, {2});
    EXPECT_TRUE(verifyFunction(Out.Rewritten, /*ExpectSsa=*/true))
        << Target->Name;
    EXPECT_GT(Out.TotalSpillCost, 0) << Target->Name;
    if (Target->MaxMemOperands == 0) {
      EXPECT_EQ(Out.LoadsFolded, 0u) << Target->Name;
    }
  }
}

TEST(TextualPipelineTest, EmittedSpillCodeReparses) {
  // The pipeline's output (with loads, stores and memory operands) must
  // itself round-trip through the parser: print -> parse -> verify.
  ParsedFunction P = parseFunction(kSample);
  ASSERT_TRUE(P.Ok) << P.Error;
  PipelineResult Out = runAllocationPipeline(P.F, X86_64, {2});
  std::string Printed = Out.Rewritten.toString();

  ParsedFunction Again = parseFunction(Printed);
  ASSERT_TRUE(Again.Ok) << Again.Error << " at line " << Again.Line
                        << "\n" << Printed;
  EXPECT_TRUE(verifyFunction(Again.F, /*ExpectSsa=*/true));
  // One parse normalizes value numbering; from there the text is a fixpoint.
  ParsedFunction Stable = parseFunction(Again.F.toString());
  ASSERT_TRUE(Stable.Ok) << Stable.Error;
  EXPECT_EQ(Again.F.toString(), Stable.F.toString());
  // Spill annotations survive the trip.
  unsigned MemOperands = 0, Loads = 0, Stores = 0;
  for (BlockId B = 0; B < Again.F.numBlocks(); ++B)
    for (const Instruction &I : Again.F.block(B).Instrs) {
      MemOperands += static_cast<unsigned>(I.MemUseSlots.size());
      Loads += I.Op == Opcode::Load ? 1 : 0;
      Stores += I.Op == Opcode::Store ? 1 : 0;
    }
  EXPECT_EQ(Loads, Out.Spills.NumLoads - Out.LoadsFolded);
  EXPECT_EQ(Stores, Out.Spills.NumStores);
  EXPECT_EQ(MemOperands, Out.LoadsFolded);
}
