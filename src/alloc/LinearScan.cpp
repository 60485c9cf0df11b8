//===- alloc/LinearScan.cpp - Linear scan baselines ------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "alloc/LinearScan.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace layra;

AllocationResult LinearScanAllocator::allocate(const AllocationProblem &P,
                                               SolverWorkspace *) {
  if (!P.Intervals)
    layraFatalError("linear scan requires live intervals on the problem");
  const LiveIntervalTable &Table = *P.Intervals;
  unsigned R = P.uniformBudget();

  std::vector<char> Flags(P.graph().numVertices(), 0);
  // Active list kept sorted by increasing End (classic linear scan).
  std::vector<LiveInterval> Active;

  auto InsertActive = [&](const LiveInterval &I) {
    auto It = std::upper_bound(Active.begin(), Active.end(), I,
                               [](const LiveInterval &A,
                                  const LiveInterval &B) {
                                 return A.End < B.End;
                               });
    Active.insert(It, I);
  };

  for (const LiveInterval &Current : Table.Intervals) {
    // Expire intervals whose range ended before this start.
    size_t Keep = 0;
    for (const LiveInterval &A : Active) {
      if (A.End >= Current.Start)
        Active[Keep++] = A;
    }
    Active.resize(Keep);

    if (Active.size() < R) {
      Flags[Current.V] = 1;
      InsertActive(Current);
      continue;
    }
    if (R == 0)
      continue; // Everything spills.

    // Choose a victim among the active intervals and the current one.
    // Candidates for eviction: Active + Current.
    auto SpillVictim = [&]() -> size_t {
      // Returns index into Active, or Active.size() for Current.
      if (Policy == PolicyKind::FurthestEnd) {
        // Active is sorted by End; the last active interval ends furthest.
        const LiveInterval &Last = Active.back();
        return Last.End > Current.End ? Active.size() - 1 : Active.size();
      }
      // CostBelady: find the cheapest candidates, then the furthest end
      // among those within the threshold.
      Weight MinCost = Current.Cost;
      for (const LiveInterval &A : Active)
        MinCost = std::min(MinCost, A.Cost);
      double Limit = static_cast<double>(MinCost) * (1.0 + Threshold);
      size_t Best = Active.size(); // Current by default.
      unsigned BestEnd = Current.End;
      bool CurrentEligible = static_cast<double>(Current.Cost) <= Limit;
      if (!CurrentEligible)
        BestEnd = 0;
      for (size_t I = 0; I < Active.size(); ++I) {
        if (static_cast<double>(Active[I].Cost) > Limit)
          continue;
        if (Best == Active.size() && !CurrentEligible) {
          Best = I;
          BestEnd = Active[I].End;
          continue;
        }
        if (Active[I].End > BestEnd) {
          Best = I;
          BestEnd = Active[I].End;
        }
      }
      return Best;
    };

    size_t Victim = SpillVictim();
    if (Victim == Active.size()) {
      // Spill the current interval: it never enters a register.
      continue;
    }
    // Spill an active interval and allocate the current one in its place.
    Flags[Active[Victim].V] = 0;
    Active.erase(Active.begin() + static_cast<long>(Victim));
    Flags[Current.V] = 1;
    InsertActive(Current);
  }

  return AllocationResult::fromFlags(P.graph(), std::move(Flags));
}
