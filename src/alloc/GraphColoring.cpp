//===- alloc/GraphColoring.cpp - Chaitin-Briggs baseline -------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "alloc/GraphColoring.h"

#include <algorithm>

using namespace layra;

std::vector<unsigned> layra::chaitinBriggsColoring(const Graph &G,
                                                   unsigned R) {
  unsigned N = G.numVertices();

  // --- Simplify phase -----------------------------------------------------
  // CurrentDegree tracks degrees in the shrinking subgraph.
  std::vector<unsigned> CurrentDegree(N);
  std::vector<char> Removed(N, 0);
  for (VertexId V = 0; V < N; ++V)
    CurrentDegree[V] = G.degree(V);

  std::vector<VertexId> Stack;
  Stack.reserve(N);
  // Worklist of simplifiable nodes (degree < R).
  std::vector<VertexId> Low;
  for (VertexId V = 0; V < N; ++V)
    if (CurrentDegree[V] < R)
      Low.push_back(V);

  unsigned RemainingCount = N;
  auto RemoveNode = [&](VertexId V) {
    Removed[V] = 1;
    --RemainingCount;
    Stack.push_back(V);
    for (VertexId U : G.neighbors(V)) {
      if (Removed[U])
        continue;
      if (--CurrentDegree[U] == R - 1 && R > 0)
        Low.push_back(U);
    }
  };

  while (RemainingCount > 0) {
    // Drain the simplify worklist first.
    bool Simplified = false;
    while (!Low.empty()) {
      VertexId V = Low.back();
      Low.pop_back();
      if (Removed[V] || CurrentDegree[V] >= R)
        continue;
      RemoveNode(V);
      Simplified = true;
    }
    if (Simplified && RemainingCount == 0)
      break;
    if (RemainingCount == 0)
      break;
    // Stuck: every remaining node has degree >= R.  Push the node with the
    // smallest cost/degree ratio optimistically (Chaitin's spill metric;
    // Briggs defers the actual spill decision to select).
    VertexId Best = kNoValue;
    for (VertexId V = 0; V < N; ++V) {
      if (Removed[V])
        continue;
      if (Best == kNoValue) {
        Best = V;
        continue;
      }
      // Compare cost/degree without divisions: w(V)*deg(Best) vs
      // w(Best)*deg(V).  Ties: higher degree, then lower id.
      Weight Lhs = G.weight(V) * static_cast<Weight>(CurrentDegree[Best]);
      Weight Rhs = G.weight(Best) * static_cast<Weight>(CurrentDegree[V]);
      if (Lhs != Rhs ? Lhs < Rhs
                     : CurrentDegree[V] > CurrentDegree[Best]) {
        Best = V;
      }
    }
    if (Best == kNoValue)
      break;
    RemoveNode(Best);
  }

  // --- Select phase -------------------------------------------------------
  std::vector<unsigned> Colors(N, ~0u);
  std::vector<char> UsedColor;
  while (!Stack.empty()) {
    VertexId V = Stack.back();
    Stack.pop_back();
    UsedColor.assign(R, 0);
    for (VertexId U : G.neighbors(V))
      if (Colors[U] != ~0u)
        UsedColor[Colors[U]] = 1;
    unsigned Color = 0;
    while (Color < R && UsedColor[Color])
      ++Color;
    if (Color >= R)
      continue; // Actual spill: optimistic node found no color.
    Colors[V] = Color;
  }
  return Colors;
}

AllocationResult GraphColoringAllocator::allocate(const AllocationProblem &P,
                                                  SolverWorkspace *) {
  const Graph &G = P.graph();
  std::vector<unsigned> Colors = chaitinBriggsColoring(G, P.uniformBudget());
  std::vector<char> Flags(Colors.size());
  for (VertexId V = 0; V < Colors.size(); ++V)
    Flags[V] = Colors[V] != ~0u;
  return AllocationResult::fromFlags(G, std::move(Flags));
}
