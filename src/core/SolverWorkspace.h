//===- core/SolverWorkspace.h - Reusable solver scratch state ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A SolverWorkspace owns every piece of scratch state the allocation hot
/// path would otherwise reallocate per layer and per task: candidate masks
/// and weight vectors (core/Layered), Frank's-algorithm residuals
/// (graph/StableSet), MCS buckets and the clique pass's buckets
/// (graph/Chordal), the edge-list dedup (graph/Graph), the interference
/// edge list (ir/Interference), clique-tree DP tables (core/StepLayer),
/// shortest-path state of the residual network (flow/MinCostFlow), the
/// simplex tableau (lp/Simplex), cluster buffers (core/LayeredHeuristic)
/// and the pipeline's pin/spill flags (alloc/Pipeline).
///
/// The layered allocator is polynomial precisely because it re-solves a
/// bounded subproblem per layer; without reuse, each of those R solves --
/// and each of the thousands of per-function tasks a BatchDriver worker
/// executes -- rebuilds the same vectors from cold heap memory.  The
/// workspace applies the clear-don't-free discipline: buffers are
/// `assign`ed or `clear`ed to a defined state on every checkout, so results
/// are bit-identical to fresh-allocation runs, but the capacity (and the
/// warm cache lines under it) survives from one layer or task to the next.
///
/// Usage contract:
///  - A workspace is *not* thread-safe: one workspace per thread.  The
///    BatchDriver keeps one per pool worker so consecutive tasks on a
///    worker reuse the same arenas.
///  - Every entry point that accepts a `SolverWorkspace *` treats `nullptr`
///    as "use a private local workspace", so results never depend on
///    whether a workspace was supplied.
///  - Scratch members are namespaced per subsystem; a subsystem must leave
///    no dangling references into another's buffers.  Nested solver calls
///    that share one workspace (layered -> stable set, BnB -> ILP -> LP)
///    only ever touch their own sections.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_CORE_SOLVERWORKSPACE_H
#define LAYRA_CORE_SOLVERWORKSPACE_H

#include "graph/Graph.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace layra {

/// Owns reusable scratch buffers for the whole solver stack.  Cheap to
/// construct (no allocation until first use); intended to live for many
/// solves.
class SolverWorkspace {
public:
  SolverWorkspace() = default;
  // One workspace per thread; copying would silently duplicate arenas.
  SolverWorkspace(const SolverWorkspace &) = delete;
  SolverWorkspace &operator=(const SolverWorkspace &) = delete;

  /// Checks a buffer out of the workspace with exactly \p N elements, each
  /// set to \p Init.  Reuses retained capacity; never shrinks it.
  template <typename T>
  std::vector<T> &acquire(std::vector<T> &Buffer, size_t N, const T &Init) {
    Buffer.assign(N, Init);
    return Buffer;
  }

  /// Checks out an empty buffer that keeps its capacity (for push_back
  /// fills whose final size is unknown).
  template <typename T>
  std::vector<T> &acquireCleared(std::vector<T> &Buffer) {
    Buffer.clear();
    return Buffer;
  }

  /// Checks out a vector-of-vectors with \p N empty inner vectors, each
  /// keeping its capacity.  (A plain `Outer.assign(N, {})` would free every
  /// inner buffer -- exactly the churn this class exists to avoid.)
  template <typename T>
  std::vector<std::vector<T>> &
  acquireNested(std::vector<std::vector<T>> &Outer, size_t N) {
    if (Outer.size() > N)
      Outer.resize(N);
    for (std::vector<T> &Inner : Outer)
      Inner.clear();
    Outer.resize(N);
    return Outer;
  }

  //===--------------------------------------------------------------------===//
  // Per-subsystem scratch sections.  Members are plain buffers; the owning
  // subsystem defines their meaning and must not rely on contents across
  // checkouts (only on capacity).
  //===--------------------------------------------------------------------===//

  /// Frank's algorithm (graph/StableSet.cpp).
  struct StableSetScratch {
    std::vector<Weight> Residual;
    std::vector<VertexId> RedStack;
    std::vector<char> BlueAdjacent;
  } Stable;

  /// One node of MCS's linked bucket stacks (graph/Chordal.cpp).
  struct McsNode {
    VertexId V;
    uint32_t Next;
  };

  /// Chordal machinery (graph/Chordal.cpp): MCS bucket stacks, the
  /// fused PEO-check + clique pass's child buckets, stamps and flags (the
  /// later lists themselves live on the EliminationOrder), and the
  /// reference passes' counts and batches.
  struct ChordalScratch {
    std::vector<uint32_t> BucketHead;
    std::vector<McsNode> BucketNodes;
    std::vector<unsigned> Count;
    std::vector<unsigned> LaterCount;
    std::vector<uint32_t> ChildEnd;
    std::vector<uint32_t> Children;
    std::vector<unsigned> Stamp;
    std::vector<char> Flags;
    std::vector<std::vector<VertexId>> MustBeAdjacentTo;
  } Chordal;

  /// Layered allocator per-run state (core/Layered.cpp): flags, clique
  /// counts, the PEO-ordered candidates with their kept degrees, and
  /// Frank's per-layer residuals, red stack and blue stamps.
  struct LayeredScratch {
    std::vector<char> Candidates;
    std::vector<char> Allocated;
    std::vector<char> CliqueClosed;
    std::vector<unsigned> PerClique;
    std::vector<Weight> LayerWeights;
    std::vector<VertexId> Order;
    std::vector<unsigned> Degree;
    std::vector<Weight> Residual;
    std::vector<VertexId> Red;
    std::vector<unsigned> BlueStamp;
  } Layered;

  /// One clique-tree node's DP table (core/StepLayer.cpp).  ProjKeys /
  /// ProjVal / ProjState are the parallel (SoA) sorted projection index
  /// over the parent separator: the binary search touches only the packed
  /// key array, and the DP sum streams only the value array.
  struct StepDpNode {
    std::vector<VertexId> Bag;
    std::vector<uint64_t> States;
    std::vector<Weight> Value;
    std::vector<uint64_t> ProjKeys;
    std::vector<Weight> ProjVal;
    std::vector<uint32_t> ProjState;
    std::vector<VertexId> Sep;
  };

  /// One row of the projection-grouping sort (core/StepLayer.cpp): a flat
  /// struct instead of nested pairs so the sort moves one contiguous
  /// 24-byte record.
  struct StepAggEntry {
    uint64_t Key;
    Weight Val;
    uint32_t State;
  };

  /// Clique-tree DP scratch (core/StepLayer.cpp).
  struct StepLayerScratch {
    std::vector<StepDpNode> Nodes;
    std::vector<Weight> BagWeight;
    std::vector<uint64_t> SubsetsCurrent;
    std::vector<uint64_t> SubsetsNext;
    std::vector<char> Selected;
    std::vector<std::pair<unsigned, uint64_t>> Work;
    std::vector<StepAggEntry> Agg;
  } Step;

  /// Cluster construction (core/LayeredHeuristic.cpp).
  struct ClusterScratch {
    std::vector<VertexId> Order;
    std::vector<char> Clustered;
    std::vector<unsigned> BlockedAt;
  } Cluster;

  /// Successive-shortest-paths state (flow/MinCostFlow.cpp).  Heap is the
  /// binary-heap storage of the Dijkstra priority queue.
  struct FlowScratch {
    std::vector<long long> Potential;
    std::vector<long long> Dist;
    std::vector<unsigned> InArc;
    std::vector<std::pair<long long, unsigned>> Heap;
  } Flow;

  /// Simplex tableau (lp/Simplex.cpp).  Tab is the dense NumRows x
  /// NumColumns working matrix -- by far the largest buffer in this class.
  struct LpScratch {
    std::vector<double> Tab;
    std::vector<double> BasicValue;
    std::vector<double> ReducedCost;
    std::vector<double> ShiftedUpper;
    std::vector<unsigned char> State;
    std::vector<unsigned> BasicOfRow;
  } Lp;

  /// Iterative pipeline flags (alloc/Pipeline.cpp).
  struct PipelineScratch {
    std::vector<char> Pinned;
    std::vector<char> Spilled;
  } Pipeline;

  /// Interference-graph construction (ir/Interference.cpp): the block
  /// entry set, the sorted live list the backward walk keeps, and the
  /// discovered edge list.
  struct InterferenceScratch {
    std::vector<VertexId> Entry;
    std::vector<VertexId> Live;
    std::vector<GraphEdge> Edges;
  } Interference;

  /// Stable edge-list dedup (removeRepeatedEdges, graph/Graph.cpp): the
  /// lower-endpoint buckets and the upper-endpoint stamps.
  struct EdgeDedupScratch {
    std::vector<uint32_t> BucketEnd;
    std::vector<uint32_t> Bucket;
    std::vector<VertexId> Stamp;
  } EdgeDedup;

  /// Per-class decomposition of multi-class instances
  /// (Allocator::allocateProblem): the local->global vertex map of the
  /// class being solved and the merged allocation flags.  Single-class
  /// solves never touch these.
  struct ClassSplitScratch {
    std::vector<VertexId> ToGlobal;
    std::vector<char> MergedFlags;
  } ClassSplit;
};

/// Resolves an optional caller-supplied workspace to a usable one without
/// paying for a fallback that is not needed: the private workspace is only
/// constructed when the caller passed nullptr.  Entry points use
///
///   WorkspaceOrLocal Scope(WS);
///   WS = Scope.get();
///
/// instead of unconditionally constructing a local SolverWorkspace (~40
/// empty vectors zero-initialized per call on paths that run per layer or
/// per branch-and-bound node).
class WorkspaceOrLocal {
public:
  explicit WorkspaceOrLocal(SolverWorkspace *WS)
      : Ptr(WS ? WS : &Own.emplace()) {}

  SolverWorkspace *get() { return Ptr; }
  SolverWorkspace &operator*() { return *Ptr; }
  SolverWorkspace *operator->() { return Ptr; }

private:
  std::optional<SolverWorkspace> Own; // Engaged only on the nullptr path.
  SolverWorkspace *Ptr;
};

} // namespace layra

#endif // LAYRA_CORE_SOLVERWORKSPACE_H
