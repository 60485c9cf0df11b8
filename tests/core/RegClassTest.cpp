//===- tests/core/RegClassTest.cpp - Register-class end-to-end tests ------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register classes end-to-end: the target class tables, the `:$class`
/// textual-IR suffix, class-pure interference construction, and -- the
/// core invariant -- cross-class NON-interference of budgets: squeezing
/// one class's register file must never change another class's spill
/// decisions, because values of different files never compete for a
/// register (the per-pressure-constraint structure of Bouchez et al.
/// generalized to per-class constraints).
///
//===----------------------------------------------------------------------===//

#include "alloc/BruteForce.h"
#include "alloc/OptimalBnB.h"
#include "alloc/Pipeline.h"
#include "core/ProblemBuilder.h"
#include "ir/Interference.h"
#include "ir/Liveness.h"
#include "ir/Parser.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace layra;

namespace {

/// A small generated two-class function (class 0 plus a "vfp"-like class
/// 1), converted to SSA.
Function makeMixedSsa(uint64_t Seed, unsigned NumVars = 10) {
  Rng R(Seed);
  ProgramGenOptions Opt;
  Opt.NumVars = NumVars;
  Opt.MaxBlocks = 16;
  Opt.MaxNesting = 2;
  Opt.ExprsPerBlockMin = 1;
  Opt.ExprsPerBlockMax = 4;
  Opt.NumClasses = 2;
  Opt.AltClassProb = 0.4;
  Function F = generateFunction(R, Opt, "mixed" + std::to_string(Seed));
  return convertToSsa(F).Ssa;
}

/// The allocation flags of \p Result restricted to class \p Class of \p P.
std::vector<char> classFlags(const AllocationProblem &P,
                             const AllocationResult &Result,
                             RegClassId Class) {
  std::vector<char> Out;
  for (VertexId V = 0; V < P.graph().numVertices(); ++V)
    if (P.classOf(V) == Class)
      Out.push_back(Result.Allocated[V]);
  return Out;
}

} // namespace

TEST(RegClassTest, TargetTablesAndRegistry) {
  const TargetDesc *Vfp = targetByName("armv7-vfp");
  ASSERT_NE(Vfp, nullptr);
  EXPECT_EQ(Vfp->numClasses(), 2u);
  EXPECT_STREQ(Vfp->regClass(0).Name, "gpr");
  EXPECT_EQ(Vfp->regClass(0).NumRegisters, 16u);
  EXPECT_STREQ(Vfp->regClass(1).Name, "vfp");
  EXPECT_EQ(Vfp->regClass(1).NumRegisters, 32u);
  EXPECT_EQ(Vfp->classIdByName("vfp"), 1);
  EXPECT_EQ(Vfp->classIdByName("mmx"), -1);

  const TargetDesc *Br = targetByName("st231-br");
  ASSERT_NE(Br, nullptr);
  EXPECT_EQ(Br->numClasses(), 2u);
  EXPECT_STREQ(Br->regClass(1).Name, "br");
  EXPECT_EQ(Br->regClass(1).NumRegisters, 8u);

  // Historical targets are one-class tables.
  for (const char *Name : {"st231", "armv7-a8", "x86-64"}) {
    const TargetDesc *T = targetByName(Name);
    ASSERT_NE(T, nullptr) << Name;
    EXPECT_EQ(T->numClasses(), 1u) << Name;
    EXPECT_EQ(T->regClass(0).NumRegisters, T->NumRegisters) << Name;
  }

  // Budget resolution: class 0 from the sweep, others architectural,
  // overrides by name; unknown names are an error.
  std::vector<unsigned> Budgets = resolveClassBudgets(*Vfp, 4, {});
  EXPECT_EQ(Budgets, (std::vector<unsigned>{4, 32}));
  Budgets = resolveClassBudgets(*Vfp, 4, {{"vfp", 8}});
  EXPECT_EQ(Budgets, (std::vector<unsigned>{4, 8}));
  std::string Error;
  EXPECT_TRUE(resolveClassBudgets(*Vfp, 4, {{"mmx", 8}}, &Error).empty());
  EXPECT_FALSE(Error.empty());

  // The shared listing mentions every registered target once.
  std::string Listing = formatTargetList();
  for (const TargetDesc *T : knownTargets())
    EXPECT_NE(Listing.find(T->Name), std::string::npos) << T->Name;
}

TEST(RegClassTest, ParserRoundTripsClassSuffix) {
  const char *Text = "function f {\n"
                     "entry:\n"
                     "  %a = op\n"
                     "  %b:$1 = op %a\n"
                     "  %c:$1 = copy %b\n"
                     "  ret %a, %c\n"
                     "}\n";
  ParsedFunction P = parseFunction(Text);
  ASSERT_TRUE(P.Ok) << P.Error;
  ASSERT_EQ(P.F.numValues(), 3u);
  EXPECT_EQ(P.F.valueClass(0), 0u);
  EXPECT_EQ(P.F.valueClass(1), 1u);
  EXPECT_EQ(P.F.valueClass(2), 1u);
  EXPECT_EQ(P.F.maxValueClass(), 1u);

  // Printing marks non-default classes at the definition; a reparse gives
  // the identical function text.
  std::string Printed = P.F.toString();
  EXPECT_NE(Printed.find("%b:$1 = op"), std::string::npos) << Printed;
  ParsedFunction Again = parseFunction(Printed);
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Again.F.toString(), Printed);
  EXPECT_EQ(Again.F.valueClass(1), 1u);
}

TEST(RegClassTest, ParserRejectsBadClassSuffixes) {
  // Out-of-range class id.
  EXPECT_FALSE(parseFunction("function f {\nentry:\n  %a:$9 = op\n  ret %a\n}\n").Ok);
  // Suffix on a use.
  EXPECT_FALSE(parseFunction("function f {\nentry:\n  %a:$1 = op\n  ret %a:$1\n}\n").Ok);
  // Conflicting classes across two defs of one (non-SSA) value.
  EXPECT_FALSE(parseFunction("function f {\nentry:\n  %a:$1 = op\n  %a:$2 = op\n  ret %a\n}\n").Ok);
  // Missing number.
  EXPECT_FALSE(parseFunction("function f {\nentry:\n  %a:$ = op\n  ret %a\n}\n").Ok);
}

TEST(RegClassTest, InterferenceNeverCrossesClasses) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Function F = makeMixedSsa(Seed);
    ASSERT_EQ(F.maxValueClass(), 1u) << "seed " << Seed
        << ": generator produced no class-1 values; adjust AltClassProb";
    Liveness Live(F);
    std::vector<Weight> Costs = computeSpillCosts(F, ARMv7_VFP);
    InterferenceInfo Info = buildInterference(F, Live, Costs);
    for (VertexId V = 0; V < Info.G.numVertices(); ++V)
      for (VertexId U : Info.G.neighbors(V))
        EXPECT_EQ(F.valueClass(V), F.valueClass(U))
            << "cross-class interference edge (" << V << "," << U << ")";
    // Each class has its own pressure: every constraint of the built
    // problem lies within one class, both classes carry one, and the
    // larger per-class maximum is the problem's MaxLive.
    AllocationProblem P = buildSsaProblem(F, ARMv7_VFP, 8);
    unsigned MaxByClass[2] = {0, 0};
    for (unsigned K = 0; K < P.Cliques.numCliques(); ++K) {
      RegClassId Class = P.constraintClass(K);
      for (VertexId V : P.Cliques.clique(K))
        EXPECT_EQ(P.classOf(V), Class) << "constraint " << K;
      MaxByClass[Class] =
          std::max(MaxByClass[Class],
                   static_cast<unsigned>(P.Cliques.clique(K).size()));
    }
    EXPECT_GT(MaxByClass[0], 0u);
    EXPECT_GT(MaxByClass[1], 0u);
    EXPECT_EQ(P.maxLive(), std::max(MaxByClass[0], MaxByClass[1]));
  }
}

TEST(RegClassTest, ClassZeroFunctionsBehaveIdenticallyOnMultiClassTargets) {
  // armv7-a8 and armv7-vfp share the cost model and the class-0 file; a
  // function that never uses class 1 must produce the identical problem
  // and the identical pipeline outcome on both -- the "one-class table"
  // compatibility guarantee of the refactor.
  Rng R(77);
  ProgramGenOptions Opt;
  Opt.NumVars = 10;
  Opt.MaxBlocks = 16;
  Function F = convertToSsa(generateFunction(R, Opt)).Ssa;
  ASSERT_EQ(F.maxValueClass(), 0u);

  AllocationProblem A = buildSsaProblem(F, ARMv7, 4);
  AllocationProblem B = buildSsaProblem(F, ARMv7_VFP, 4);
  EXPECT_EQ(B.numClasses(), 1u); // Trimmed to the classes present.
  EXPECT_EQ(A.Budgets, B.Budgets);
  EXPECT_EQ(A.ClassOf, B.ClassOf);
  EXPECT_EQ(A.Cliques, B.Cliques);

  PipelineResult PA = runAllocationPipeline(F, ARMv7, 4);
  PipelineResult PB = runAllocationPipeline(F, ARMv7_VFP, 4);
  EXPECT_EQ(PA.TotalSpillCost, PB.TotalSpillCost);
  EXPECT_EQ(PA.Spills.NumLoads, PB.Spills.NumLoads);
  EXPECT_EQ(PA.Regs.RegisterOf, PB.Regs.RegisterOf);
  EXPECT_EQ(PA.Rewritten.toString(), PB.Rewritten.toString());
}

TEST(RegClassTest, CrossClassBudgetNonInterference) {
  // THE core invariant: varying one class's budget never changes another
  // class's allocation.  Exercised with the exact solver (optimal is
  // unique-cost, so flag equality is meaningful) and the default layered
  // pipeline allocator through the decomposition path.
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Function F = makeMixedSsa(Seed);
    AllocationProblem Base = buildSsaProblem(F, ARMv7_VFP, 3);
    ASSERT_TRUE(Base.multiClass());

    OptimalBnBAllocator BnB;
    AllocationResult Ref = BnB.allocateProblem(Base);
    ASSERT_TRUE(Ref.Proven);
    std::vector<char> Class0Ref = classFlags(Base, Ref, 0);
    std::vector<char> Class1Ref = classFlags(Base, Ref, 1);

    // Sweep class 1's budget: class 0's optimal allocation is untouched.
    for (unsigned Vfp : {1u, 2u, 4u, 32u}) {
      AllocationProblem P = Base.withBudgets({3, Vfp});
      AllocationResult R = BnB.allocateProblem(P);
      ASSERT_TRUE(R.Proven);
      EXPECT_TRUE(isFeasibleAllocation(P, R.Allocated));
      EXPECT_EQ(classFlags(P, R, 0), Class0Ref)
          << "seed=" << Seed << " vfp=" << Vfp
          << ": class-1 budget changed class-0 decisions";
    }
    // And symmetrically: sweeping class 0 leaves class 1 untouched.
    for (unsigned Gpr : {1u, 2u, 5u, 16u}) {
      AllocationProblem P = Base.withBudgets({Gpr, 32});
      AllocationResult R = BnB.allocateProblem(P);
      ASSERT_TRUE(R.Proven);
      EXPECT_EQ(classFlags(P, R, 1), Class1Ref)
          << "seed=" << Seed << " gpr=" << Gpr
          << ": class-0 budget changed class-1 decisions";
    }
  }
}

TEST(RegClassTest, DecompositionMatchesDirectMultiClassSolvers) {
  // OptimalBnB understands per-constraint budgets natively; the generic
  // per-class decomposition must land on the same optimum.  BruteForce
  // cross-checks both where affordable.
  for (uint64_t Seed = 11; Seed <= 16; ++Seed) {
    Function F = makeMixedSsa(Seed, /*NumVars=*/8);
    for (unsigned Gpr = 2; Gpr <= 5; ++Gpr) {
      AllocationProblem P = buildSsaProblem(F, ARMv7_VFP, {Gpr, 2});
      ASSERT_TRUE(P.multiClass());

      OptimalBnBAllocator BnB;
      AllocationResult Direct = BnB.allocate(P);
      AllocationResult Split = BnB.allocateProblem(P);
      ASSERT_TRUE(Direct.Proven);
      ASSERT_TRUE(Split.Proven);
      EXPECT_TRUE(isFeasibleAllocation(P, Direct.Allocated));
      EXPECT_TRUE(isFeasibleAllocation(P, Split.Allocated));
      EXPECT_EQ(Direct.SpillCost, Split.SpillCost)
          << "seed=" << Seed << " gpr=" << Gpr;

      if (P.graph().numVertices() <= 22) {
        AllocationResult Brute = BruteForceAllocator().allocateProblem(P);
        EXPECT_EQ(Brute.SpillCost, Direct.SpillCost)
            << "seed=" << Seed << " gpr=" << Gpr;
      }

      // Heuristics route through the same decomposition: feasible, never
      // better than the proven optimum.
      for (const char *Name : {"bfpl", "lh", "gc", "ls"}) {
        AllocationResult H = makeAllocator(Name)->allocateProblem(P);
        EXPECT_TRUE(isFeasibleAllocation(P, H.Allocated))
            << Name << " seed=" << Seed;
        EXPECT_GE(H.SpillCost, Direct.SpillCost) << Name;
      }
    }
  }
}

TEST(RegClassTest, MultiClassPipelineEndToEnd) {
  for (uint64_t Seed = 21; Seed <= 24; ++Seed) {
    Function F = makeMixedSsa(Seed);

    // Tight budgets force spilling in both files.
    PipelineResult Tight = runAllocationPipeline(F, ARMv7_VFP, {2, 2});
    std::string VerifyError;
    EXPECT_TRUE(verifyFunction(Tight.Rewritten, /*ExpectSsa=*/true,
                               &VerifyError))
        << VerifyError;
    // Spill temporaries inherit their value's class: the rewritten
    // function introduces no cross-class interference, so its problem
    // still splits cleanly (buildSsaProblem would abort otherwise).
    AllocationProblem Rewritten =
        buildSsaProblem(Tight.Rewritten, ARMv7_VFP, {2, 2});
    for (VertexId V = 0; V < Rewritten.graph().numVertices(); ++V)
      for (VertexId U : Rewritten.graph().neighbors(V))
        EXPECT_EQ(Rewritten.classOf(V), Rewritten.classOf(U));

    // Assignment is (class, index): indices stay below the class budget
    // and interfering (same-class) neighbors never share an index.
    const Assignment &Regs = Tight.Regs;
    ASSERT_EQ(Regs.ClassOf.size(), Regs.RegisterOf.size());
    for (VertexId V = 0; V < Regs.RegisterOf.size(); ++V) {
      if (Regs.RegisterOf[V] == Assignment::kNoRegister)
        continue;
      EXPECT_LT(Regs.RegisterOf[V], 2u); // Both budgets are 2.
    }

    // Generous budgets: everything fits, nothing spills.
    PipelineResult Roomy = runAllocationPipeline(F, ARMv7_VFP, {16, 32});
    EXPECT_TRUE(Roomy.Fits) << "seed=" << Seed;
    EXPECT_EQ(Roomy.TotalSpillCost, 0) << "seed=" << Seed;
    EXPECT_EQ(Roomy.Rounds, 1u) << "seed=" << Seed;
  }
}

TEST(RegClassTest, GeneralProblemsSplitPointSetsPerClass) {
  // Non-SSA (general) instances: every pressure constraint must be
  // class-pure, and isFeasibleAllocation must check each against its own
  // class's budget.
  for (uint64_t Seed = 31; Seed <= 34; ++Seed) {
    Rng R(Seed);
    ProgramGenOptions Opt;
    Opt.NumVars = 10;
    Opt.MaxBlocks = 14;
    Opt.NumClasses = 2;
    Opt.AltClassProb = 0.4;
    Function F = generateFunction(R, Opt);
    AllocationProblem P = buildGeneralProblem(F, ARMv7_VFP, {3, 2});
    ASSERT_TRUE(P.multiClass());
    std::vector<char> Covered(P.graph().numVertices(), 0);
    for (unsigned K = 0; K < P.Cliques.numCliques(); ++K) {
      EXPECT_FALSE(P.Cliques.clique(K).empty()) << "seed=" << Seed;
      for (VertexId V : P.Cliques.clique(K)) {
        EXPECT_EQ(P.classOf(V), P.constraintClass(K));
        Covered[V] = 1;
      }
    }
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      EXPECT_TRUE(Covered[V]) << "vertex " << V << " in no constraint";

    // The layered heuristic (general-graph path) through decomposition.
    AllocationResult H = makeAllocator("lh")->allocateProblem(P);
    EXPECT_TRUE(isFeasibleAllocation(P, H.Allocated)) << "seed=" << Seed;
  }
}
