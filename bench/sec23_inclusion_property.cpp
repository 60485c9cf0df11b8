//===- bench/sec23_inclusion_property.cpp - Paper §2.3 --------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §2.3: Diouf et al. observed that the optimal spill set at R registers is
/// included in the optimal spill set at R-1 registers for 99.83% of SPEC
/// JVM98 methods -- the empirical basis of stepwise (layered) allocation.
///
/// This harness recomputes the statistic on the synthetic JVM98 suite two
/// ways:
///
///  1. *arbitrary tie-break*: solve every R independently and check literal
///     nesting of the returned spill sets.  Synthetic suites have many
///     cost ties, so equal-value optima picked arbitrarily understate the
///     property badly;
///  2. *nested chain*: sweep R upwards carrying the allocated set A(R-1)
///     and solve each R lexicographically -- maximise the spill-cost
///     objective first, overlap with A(R-1) second (encoded exactly as
///     w' = w*(N+1) + [v in A], valid because weights are integral).  The
///     pair holds when the tie-broken optimum fully contains A(R-1), i.e.
///     when a nested optimal allocation *exists*.  This matches what the
///     paper's deterministic CPLEX runs on real (rarely tied) costs were
///     effectively measuring.
///
//===----------------------------------------------------------------------===//

#include "alloc/OptimalBnB.h"
#include "ir/Target.h"
#include "suites/Suites.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

using namespace layra;

namespace {

/// Statistics of one sweep strategy.
struct InclusionStats {
  unsigned MethodsChecked = 0, MethodsAllHold = 0;
  unsigned PairsChecked = 0, PairsHold = 0;

  void addMethod(bool AllHold) {
    ++MethodsChecked;
    MethodsAllHold += AllHold ? 1 : 0;
  }
  void addPair(bool Holds) {
    ++PairsChecked;
    PairsHold += Holds ? 1 : 0;
  }
  double methodRate() const {
    return 100.0 * MethodsAllHold / std::max(1u, MethodsChecked);
  }
  double pairRate() const {
    return 100.0 * PairsHold / std::max(1u, PairsChecked);
  }
};

/// Independent solves, literal nesting of the returned spill sets.
void sweepArbitrary(const NamedProblem &NP, unsigned Top,
                    InclusionStats &Stats) {
  bool AllHold = true;
  std::set<VertexId> Previous;
  bool HavePrevious = false;
  // Downward sweep: spilled(R+1) must be contained in spilled(R).
  for (unsigned Regs = Top; Regs >= 1; --Regs) {
    // withBudgets shares the immutable graph across the whole sweep.
    AllocationProblem P = NP.P.withBudgets({Regs});
    OptimalBnBAllocator BnB(10'000'000);
    AllocationResult Result = BnB.allocate(P);
    std::vector<VertexId> SpilledVec = Result.spilled();
    std::set<VertexId> Spilled(SpilledVec.begin(), SpilledVec.end());
    if (HavePrevious) {
      bool Holds = std::includes(Spilled.begin(), Spilled.end(),
                                 Previous.begin(), Previous.end());
      Stats.addPair(Holds);
      AllHold &= Holds;
    }
    Previous = std::move(Spilled);
    HavePrevious = true;
  }
  Stats.addMethod(AllHold);
}

/// Upward sweep with lexicographic tie-breaking toward the previous
/// allocated set; a pair holds when a nested optimum exists.
void sweepNestedChain(const NamedProblem &NP, unsigned Top,
                      InclusionStats &Stats) {
  bool AllHold = true;
  std::vector<char> PreviousAllocated;
  Weight PreviousSize = 0;
  unsigned N = NP.P.graph().numVertices();

  for (unsigned Regs = 1; Regs <= Top; ++Regs) {
    AllocationProblem P = NP.P.withBudgets({Regs});
    if (!PreviousAllocated.empty()) {
      // Lexicographic objective: weight first, overlap with the previous
      // allocation second.  The perturbed weights need a private graph --
      // the sweep otherwise shares one immutable instance.
      Graph Perturbed = NP.P.graph();
      for (VertexId V = 0; V < N; ++V)
        Perturbed.setWeight(V, NP.P.graph().weight(V) * (N + 1) +
                                   (PreviousAllocated[V] ? 1 : 0));
      P.G = std::make_shared<Graph>(std::move(Perturbed));
    }
    OptimalBnBAllocator BnB(10'000'000);
    AllocationResult Result = BnB.allocate(P);
    if (!PreviousAllocated.empty()) {
      Weight Overlap = 0;
      for (VertexId V = 0; V < N; ++V)
        Overlap += (Result.Allocated[V] && PreviousAllocated[V]) ? 1 : 0;
      // Nested optimum exists iff the maximal overlap is the full previous
      // allocation (allocated sets grow with R <=> spill sets nest).
      bool Holds = Overlap == PreviousSize;
      Stats.addPair(Holds);
      AllHold &= Holds;
    }
    PreviousAllocated = Result.Allocated;
    PreviousSize = 0;
    for (VertexId V = 0; V < N; ++V)
      PreviousSize += PreviousAllocated[V] ? 1 : 0;
  }
  Stats.addMethod(AllHold);
}

} // namespace

int main() {
  Suite S = makeSpecJvm98();
  // Build once at a placeholder R; re-target per register count below.
  std::vector<NamedProblem> Problems = generalProblems(S, ARMv7, {1});

  InclusionStats Arbitrary, Nested;
  for (NamedProblem &NP : Problems) {
    unsigned MaxLive = NP.P.maxLive();
    if (MaxLive < 2)
      continue;
    // Cap the sweep so the harness stays fast on the biggest methods.
    unsigned Top = std::min(MaxLive, 12u);
    sweepArbitrary(NP, Top, Arbitrary);
    sweepNestedChain(NP, Top, Nested);
  }

  std::printf("== Section 2.3: spill-set inclusion across register counts "
              "==\n");
  Table T({"metric", "arbitrary tie-break", "nested chain"});
  T.addRow({"methods checked", Table::num((long long)Arbitrary.MethodsChecked),
            Table::num((long long)Nested.MethodsChecked)});
  T.addRow({"methods where inclusion holds for every R",
            Table::num((long long)Arbitrary.MethodsAllHold),
            Table::num((long long)Nested.MethodsAllHold)});
  T.addRow({"method inclusion rate (paper: 99.83%)",
            Table::num(Arbitrary.methodRate(), 2) + "%",
            Table::num(Nested.methodRate(), 2) + "%"});
  T.addRow({"adjacent-R pairs checked",
            Table::num((long long)Arbitrary.PairsChecked),
            Table::num((long long)Nested.PairsChecked)});
  T.addRow({"pairwise inclusion rate",
            Table::num(Arbitrary.pairRate(), 2) + "%",
            Table::num(Nested.pairRate(), 2) + "%"});
  T.print(stdout);
  std::printf(
      "\nReading: the 'nested chain' column asks whether *some* optimal\n"
      "allocation at R extends the one chosen at R-1 (lexicographic\n"
      "tie-break); the 'arbitrary' column shows how much of the property\n"
      "independent solves destroy through cost ties alone.  Synthetic\n"
      "costs tie far more often than JikesRVM's measured costs, so the\n"
      "paper's 99.83%% corresponds to the nested-chain figure.\n");
  return 0;
}
