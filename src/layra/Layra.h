//===- layra/Layra.h - Public facade -----------------------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header: one include for everything a downstream user of Layra
/// needs.  Layra reproduces "A Polynomial Spilling Heuristic: Layered
/// Allocation" (Diouf, Cohen, Rastello; CGO 2013): the layered-optimal
/// spilling heuristic for SSA programs, the layered heuristic for general
/// programs, the classical baselines, exact solvers, and a mini compiler IR
/// to derive interference graphs from programs.
///
/// Quick start:
/// \code
///   Function F = ...;                       // build or generate IR
///   SsaConversion Ssa = convertToSsa(F);
///   AllocationProblem P = buildSsaProblem(Ssa.Ssa, ST231, {8});
///   AllocationResult Best = layeredAllocate(P, LayeredOptions::bfpl());
///   Assignment Regs = assignRegisters(P, Best.Allocated);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_LAYRA_H
#define LAYRA_LAYRA_H

#include "alloc/Allocator.h"
#include "alloc/BruteForce.h"
#include "alloc/GraphColoring.h"
#include "alloc/LinearScan.h"
#include "alloc/OptimalBnB.h"
#include "alloc/OptimalInterval.h"
#include "alloc/Pipeline.h"
#include "core/Assignment.h"
#include "core/Coalescing.h"
#include "core/AllocationProblem.h"
#include "core/Layered.h"
#include "core/LayeredHeuristic.h"
#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "core/StepLayer.h"
#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "flow/MinCostFlow.h"
#include "graph/Chordal.h"
#include "graph/Coloring.h"
#include "graph/Generators.h"
#include "graph/Graph.h"
#include "graph/StableSet.h"
#include "ir/Dominators.h"
#include "ir/Interference.h"
#include "ir/LiveIntervals.h"
#include "ir/Liveness.h"
#include "ir/OperandFolding.h"
#include "ir/LoopInfo.h"
#include "ir/Parser.h"
#include "ir/Program.h"
#include "ir/ProgramGen.h"
#include "ir/ReloadCleanup.h"
#include "ir/SpillRewriter.h"
#include "ir/SsaBuilder.h"
#include "ir/Target.h"
#include "lp/Ilp.h"
#include "lp/Simplex.h"
#include "suites/Suites.h"

#endif // LAYRA_LAYRA_H
