//===- core/SolverWorkspace.cpp - Reusable solver scratch state ------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/SolverWorkspace.h"

using namespace layra;

namespace {
template <typename T> void release(std::vector<T> &V) {
  std::vector<T>().swap(V);
}
} // namespace

void SolverWorkspace::releaseMemory() {
  release(Stable.Residual);
  release(Stable.RedStack);
  release(Stable.BlueAdjacent);

  release(Chordal.BucketHead);
  release(Chordal.BucketNodes);
  release(Chordal.Count);
  release(Chordal.LaterCount);
  release(Chordal.ChildEnd);
  release(Chordal.Children);
  release(Chordal.Stamp);
  release(Chordal.Flags);
  release(Chordal.MustBeAdjacentTo);

  release(Layered.Candidates);
  release(Layered.Allocated);
  release(Layered.CliqueClosed);
  release(Layered.PerClique);
  release(Layered.LayerWeights);
  release(Layered.Order);
  release(Layered.Degree);
  release(Layered.Residual);
  release(Layered.Red);
  release(Layered.BlueStamp);

  release(Step.Nodes);
  release(Step.BagWeight);
  release(Step.SubsetsCurrent);
  release(Step.SubsetsNext);
  release(Step.Selected);
  release(Step.Work);
  release(Step.Agg);

  release(Cluster.Order);
  release(Cluster.Clustered);
  release(Cluster.BlockedAt);

  release(Flow.Potential);
  release(Flow.Dist);
  release(Flow.InArc);
  release(Flow.Heap);

  release(Lp.Tab);
  release(Lp.BasicValue);
  release(Lp.ReducedCost);
  release(Lp.ShiftedUpper);
  release(Lp.State);
  release(Lp.BasicOfRow);

  release(Pipeline.Pinned);
  release(Pipeline.Spilled);

  release(Interference.Entry);
  release(Interference.Live);
  release(Interference.Edges);

  release(EdgeDedup.BucketEnd);
  release(EdgeDedup.Bucket);
  release(EdgeDedup.Stamp);

  release(ClassSplit.ToGlobal);
  release(ClassSplit.MergedFlags);
}
