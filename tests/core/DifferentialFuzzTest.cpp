//===- tests/core/DifferentialFuzzTest.cpp - Differential fuzzing ---------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing over seeded ProgramGen programs: spill-everywhere
/// is NP-complete even under SSA (Bouchez-Darte-Rastello), so the layered
/// heuristics' only correctness anchor is cross-checking against the exact
/// solvers on many generated instances.  Swept over register counts 2..10,
/// every instance asserts
///  - the heuristic never beats a proven exact optimum (and the exhaustive
///    oracle agrees with branch-and-bound where it is affordable),
///  - cluster register assignments are valid: no interfering pair shares a
///    register,
///  - workspace-reuse runs are byte-identical to fresh-workspace runs --
///    the SolverWorkspace carries capacity, never state.
///
//===----------------------------------------------------------------------===//

#include "alloc/BruteForce.h"
#include "alloc/OptimalBnB.h"
#include "alloc/Pipeline.h"
#include "core/Layered.h"
#include "core/LayeredHeuristic.h"
#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "core/StepLayer.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace layra;

namespace {

/// Small generated programs keep the exact solvers fast while still
/// exercising loops, branches and redefinitions.
Function makeProgram(uint64_t Seed) {
  Rng R(Seed);
  ProgramGenOptions Opt;
  Opt.NumVars = 8 + static_cast<unsigned>(Seed % 5);
  Opt.MaxBlocks = 16;
  Opt.MaxNesting = 2;
  Opt.ExprsPerBlockMin = 1;
  Opt.ExprsPerBlockMax = 4;
  return generateFunction(R, Opt, "fuzz" + std::to_string(Seed));
}

/// Validity: an allocation's register assignment must give interfering
/// vertices distinct registers, and exactly the allocated vertices one.
void expectValidAssignment(const AllocationProblem &P,
                           const LayeredHeuristicResult &LH,
                           uint64_t Seed, unsigned Regs) {
  const std::vector<char> &Allocated = LH.Allocation.Allocated;
  ASSERT_EQ(Allocated.size(), P.graph().numVertices());
  ASSERT_EQ(LH.RegisterOf.size(), P.graph().numVertices());
  for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
    if (!Allocated[V]) {
      EXPECT_EQ(LH.RegisterOf[V], LayeredHeuristicResult::kNoRegister)
          << "seed=" << Seed << " R=" << Regs << " v=" << V;
      continue;
    }
    EXPECT_LT(LH.RegisterOf[V], P.uniformBudget())
        << "seed=" << Seed << " R=" << Regs << " v=" << V;
    for (VertexId U : P.graph().neighbors(V))
      if (Allocated[U]) {
        EXPECT_NE(LH.RegisterOf[V], LH.RegisterOf[U])
            << "interfering pair shares a register: seed=" << Seed
            << " R=" << Regs << " edge=(" << V << "," << U << ")";
      }
  }
  EXPECT_TRUE(isFeasibleAllocation(P, Allocated))
      << "seed=" << Seed << " R=" << Regs;
}

} // namespace

TEST(DifferentialFuzz, HeuristicsNeverBeatProvenExactAndStayValid) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Function F = makeProgram(Seed);
    SsaConversion Ssa = convertToSsa(F);
    for (unsigned Regs = 2; Regs <= 10; ++Regs) {
      AllocationProblem P = buildSsaProblem(Ssa.Ssa, ST231, Regs);

      LayeredHeuristicResult LH = layeredHeuristicAllocate(P);
      expectValidAssignment(P, LH, Seed, Regs);

      AllocationResult Layered = layeredAllocate(P, LayeredOptions::bfpl());
      EXPECT_TRUE(isFeasibleAllocation(P, Layered.Allocated))
          << "seed=" << Seed << " R=" << Regs;

      OptimalBnBAllocator BnB;
      AllocationResult Exact = BnB.allocate(P);
      if (!Exact.Proven)
        continue;
      EXPECT_TRUE(isFeasibleAllocation(P, Exact.Allocated))
          << "seed=" << Seed << " R=" << Regs;
      // The heuristics may only lose (spill more), never win.
      EXPECT_GE(LH.Allocation.SpillCost, Exact.SpillCost)
          << "seed=" << Seed << " R=" << Regs;
      EXPECT_GE(Layered.SpillCost, Exact.SpillCost)
          << "seed=" << Seed << " R=" << Regs;
      // Where exhaustive search is affordable, it must agree exactly.
      if (P.graph().numVertices() <= 20) {
        AllocationResult Brute = BruteForceAllocator().allocate(P);
        EXPECT_EQ(Brute.SpillCost, Exact.SpillCost)
            << "seed=" << Seed << " R=" << Regs;
        EXPECT_GE(LH.Allocation.SpillCost, Brute.SpillCost)
            << "seed=" << Seed << " R=" << Regs;
      }
    }
  }
}

TEST(DifferentialFuzz, WorkspaceReuseIsByteIdenticalToFreshRuns) {
  // One long-lived workspace spanning every instance and register count --
  // exactly the BatchDriver worker pattern.  Any state leak between
  // checkouts would desynchronize the comparisons below.
  SolverWorkspace Shared;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Function F = makeProgram(Seed);
    SsaConversion Ssa = convertToSsa(F);
    for (unsigned Regs = 2; Regs <= 10; ++Regs) {
      AllocationProblem Fresh = buildSsaProblem(Ssa.Ssa, ST231, Regs);
      AllocationProblem Reused =
          buildSsaProblem(Ssa.Ssa, ST231, Regs, &Shared);
      EXPECT_EQ(Fresh.Peo.Order, Reused.Peo.Order);
      EXPECT_EQ(Fresh.Cliques, Reused.Cliques);

      for (auto Opts : {LayeredOptions::nl(), LayeredOptions::bl(),
                        LayeredOptions::fpl(), LayeredOptions::bfpl()}) {
        AllocationResult A = layeredAllocate(Fresh, Opts);
        AllocationResult B = layeredAllocate(Reused, Opts, &Shared);
        EXPECT_EQ(A.Allocated, B.Allocated);
        EXPECT_EQ(A.SpillCost, B.SpillCost);
      }

      LayeredHeuristicResult HFresh = layeredHeuristicAllocate(Fresh);
      LayeredHeuristicResult HReused =
          layeredHeuristicAllocate(Reused, &Shared);
      EXPECT_EQ(HFresh.Allocation.Allocated, HReused.Allocation.Allocated);
      EXPECT_EQ(HFresh.RegisterOf, HReused.RegisterOf);

      OptimalBnBAllocator BnB;
      AllocationResult EFresh = BnB.allocate(Fresh);
      AllocationResult EReused = BnB.allocate(Reused, &Shared);
      EXPECT_EQ(EFresh.Allocated, EReused.Allocated);
      EXPECT_EQ(EFresh.SpillCost, EReused.SpillCost);
    }

    // Whole-pipeline comparison (what a BatchDriver task actually runs).
    PipelineOptions Opts;
    PipelineResult RFresh = runAllocationPipeline(Ssa.Ssa, ST231, 4, Opts);
    PipelineResult RReused =
        runAllocationPipeline(Ssa.Ssa, ST231, 4, Opts, &Shared);
    EXPECT_EQ(RFresh.TotalSpillCost, RReused.TotalSpillCost);
    EXPECT_EQ(RFresh.Spills.NumLoads, RReused.Spills.NumLoads);
    EXPECT_EQ(RFresh.Spills.NumStores, RReused.Spills.NumStores);
    EXPECT_EQ(RFresh.Rounds, RReused.Rounds);
    EXPECT_EQ(RFresh.Fits, RReused.Fits);
    EXPECT_EQ(RFresh.Regs.RegisterOf, RReused.Regs.RegisterOf);
  }
}

TEST(DifferentialFuzz, ScalarEraEqualsOneClassTableBehavior) {
  // The register-class refactor's compatibility contract: the scalar
  // entry points (one R) and the class-table entry points (budgets {R})
  // are the same computation, and a single-class function run against a
  // multi-class target behaves exactly as on the one-class target with
  // the same cost model (budgets trim to the classes present).
  for (uint64_t Seed = 31; Seed <= 38; ++Seed) {
    Function F = makeProgram(Seed);
    SsaConversion Ssa = convertToSsa(F);
    for (unsigned Regs = 2; Regs <= 8; Regs += 3) {
      AllocationProblem Scalar = buildSsaProblem(Ssa.Ssa, ST231, Regs);
      AllocationProblem Table =
          buildSsaProblem(Ssa.Ssa, ST231, std::vector<unsigned>{Regs});
      EXPECT_EQ(Scalar.Budgets, Table.Budgets);
      EXPECT_EQ(Scalar.ClassOf, Table.ClassOf);
      EXPECT_EQ(Scalar.Cliques, Table.Cliques);
      EXPECT_EQ(Scalar.Peo.Order, Table.Peo.Order);

      // allocateProblem's single-class fast path is allocate() verbatim.
      OptimalBnBAllocator BnB;
      AllocationResult Direct = BnB.allocate(Scalar);
      AllocationResult Routed = BnB.allocateProblem(Table);
      EXPECT_EQ(Direct.Allocated, Routed.Allocated);
      EXPECT_EQ(Direct.SpillCost, Routed.SpillCost);

      // st231-br has the identical cost model and class-0 file as st231;
      // class-0-only functions cannot tell them apart.
      PipelineOptions Opts;
      PipelineResult OneClass =
          runAllocationPipeline(Ssa.Ssa, ST231, Regs, Opts);
      PipelineResult TwoClass =
          runAllocationPipeline(Ssa.Ssa, ST231_BR, Regs, Opts);
      EXPECT_EQ(OneClass.TotalSpillCost, TwoClass.TotalSpillCost);
      EXPECT_EQ(OneClass.Spills.NumLoads, TwoClass.Spills.NumLoads);
      EXPECT_EQ(OneClass.Regs.RegisterOf, TwoClass.Regs.RegisterOf);
      EXPECT_EQ(OneClass.Rewritten.toString(), TwoClass.Rewritten.toString());
    }
  }
}

TEST(DifferentialFuzz, MultiClassHeuristicsNeverBeatDirectExact) {
  // Two-class instances: the per-class decomposition (heuristics) against
  // the natively per-constraint-budget branch-and-bound, same anchor as
  // the single-class sweep above.
  SolverWorkspace Shared;
  for (uint64_t Seed = 41; Seed <= 48; ++Seed) {
    Rng R(Seed);
    ProgramGenOptions Opt;
    Opt.NumVars = 8 + static_cast<unsigned>(Seed % 4);
    Opt.MaxBlocks = 16;
    Opt.MaxNesting = 2;
    Opt.ExprsPerBlockMin = 1;
    Opt.ExprsPerBlockMax = 4;
    Opt.NumClasses = 2;
    Opt.AltClassProb = 0.4;
    Function F = generateFunction(R, Opt, "mc" + std::to_string(Seed));
    SsaConversion Ssa = convertToSsa(F);
    for (unsigned Regs = 2; Regs <= 6; ++Regs) {
      AllocationProblem P =
          buildSsaProblem(Ssa.Ssa, ARMv7_VFP, {Regs, 2});
      if (!P.multiClass())
        continue; // Rare: the generator used only one class.
      OptimalBnBAllocator BnB;
      AllocationResult Exact = BnB.allocate(P);
      ASSERT_TRUE(Exact.Proven) << "seed=" << Seed << " R=" << Regs;
      EXPECT_TRUE(isFeasibleAllocation(P, Exact.Allocated));
      for (const char *Name : {"bfpl", "lh"}) {
        AllocationResult H =
            makeAllocator(Name)->allocateProblem(P, &Shared);
        EXPECT_TRUE(isFeasibleAllocation(P, H.Allocated))
            << Name << " seed=" << Seed << " R=" << Regs;
        EXPECT_GE(H.SpillCost, Exact.SpillCost)
            << Name << " seed=" << Seed << " R=" << Regs;
        // Workspace reuse stays byte-identical on the decomposition path.
        AllocationResult HFresh = makeAllocator(Name)->allocateProblem(P);
        EXPECT_EQ(H.Allocated, HFresh.Allocated) << Name;
      }
    }
  }
}

TEST(DifferentialFuzz, StepLayersReuseDpTablesDeterministically) {
  // The step >= 2 clique-tree DP is where cross-layer table reuse is
  // heaviest; sweep it with one shared workspace against fresh solves.
  SolverWorkspace Shared;
  for (uint64_t Seed = 21; Seed <= 26; ++Seed) {
    Function F = makeProgram(Seed);
    SsaConversion Ssa = convertToSsa(F);
    for (unsigned Step = 2; Step <= kMaxLayerStep; ++Step) {
      for (unsigned Regs = Step; Regs <= 8; Regs += 2) {
        AllocationProblem P = buildSsaProblem(Ssa.Ssa, ST231, Regs);
        LayeredOptions Opts;
        Opts.Step = Step;
        AllocationResult A = layeredAllocate(P, Opts);
        AllocationResult B = layeredAllocate(P, Opts, &Shared);
        EXPECT_EQ(A.Allocated, B.Allocated)
            << "seed=" << Seed << " step=" << Step << " R=" << Regs;
        EXPECT_TRUE(isFeasibleAllocation(P, B.Allocated));
      }
    }
  }
}
