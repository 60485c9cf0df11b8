//===- ir/Interference.cpp - Interference graph construction ---------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Interference.h"

#include "core/SolverWorkspace.h"
#include "obs/Trace.h"

#include <algorithm>
#include <unordered_set>

using namespace layra;

std::vector<Weight> layra::computeSpillCosts(const Function &F,
                                             const TargetDesc &Target) {
  PhaseSpan CostsSpan(Phase::SpillCosts);
  std::vector<Weight> Costs(F.numValues(), 0);
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    for (const Instruction &I : BB.Instrs) {
      if (I.isPhi()) {
        // The def is materialised at the top of this block; each operand is
        // consumed on the incoming edge, i.e. at the predecessor's end.
        for (ValueId V : I.Defs)
          Costs[V] += Target.StoreCost * BB.Frequency;
        for (size_t P = 0; P < I.Uses.size(); ++P)
          if (I.Uses[P] != kNoValue)
            Costs[I.Uses[P]] +=
                Target.LoadCost * F.block(BB.Preds[P]).Frequency;
        continue;
      }
      for (ValueId V : I.Defs)
        Costs[V] += Target.StoreCost * BB.Frequency;
      for (ValueId V : I.Uses)
        Costs[V] += Target.LoadCost * BB.Frequency;
    }
  }
  return Costs;
}

namespace {
/// Hash for sorted vertex lists, to deduplicate point live sets.
struct LiveSetHash {
  size_t operator()(const std::vector<VertexId> &Set) const {
    uint64_t H = 0x9e3779b97f4a7c15ULL;
    for (VertexId V : Set) {
      H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
    }
    return static_cast<size_t>(H);
  }
};
} // namespace

InterferenceInfo layra::buildInterference(const Function &F,
                                          const Liveness &Live,
                                          const std::vector<Weight> &Costs,
                                          SolverWorkspace *WS,
                                          bool CollectPointSets,
                                          std::vector<GraphEdge> *Discovered) {
  assert(Costs.size() == F.numValues() && "one cost per value required");
  PhaseSpan InterferenceSpan(Phase::Interference);
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  InterferenceInfo Info;
  // Edges are appended in discovery order, repeats included; one stable
  // dedup and the edge-list Graph constructor turn them into the CSR graph
  // (graph/Graph.h).
  std::vector<GraphEdge> &Edges = WS->acquireCleared(WS->Interference.Edges);
  auto AddEdge = [&](VertexId A, VertexId B) { Edges.push_back({A, B}); };

  // Register classes partition the values: only same-class values compete
  // for registers, so cross-class pairs never interfere and pressure is
  // tracked per class.  Single-class functions take the exact historical
  // path (MultiClass is false, SameClass is constant-true).
  const bool MultiClass = F.maxValueClass() > 0;
  Info.MaxLiveByClass.assign(F.maxValueClass() + 1, 0);
  auto SameClass = [&](ValueId A, ValueId B) {
    return !MultiClass || F.valueClass(A) == F.valueClass(B);
  };

  // With CollectPointSets off only the pressure maximum is tracked; the
  // per-point sort/hash/dedup is what the SSA fast path skips, and a
  // single-class point costs only its size.
  std::unordered_set<std::vector<VertexId>, LiveSetHash> SeenSets;
  auto RecordPoint = [&](const std::vector<VertexId> &Set) {
    if (!MultiClass) {
      Info.MaxLive = std::max(Info.MaxLive,
                              static_cast<unsigned>(Set.size()));
    } else {
      unsigned PerClass[kMaxRegClasses] = {};
      for (VertexId V : Set)
        ++PerClass[F.valueClass(V)];
      for (unsigned C = 0; C < Info.MaxLiveByClass.size(); ++C)
        Info.MaxLiveByClass[C] = std::max(Info.MaxLiveByClass[C],
                                          PerClass[C]);
    }
    if (!CollectPointSets)
      return;
    std::vector<VertexId> Sorted(Set.begin(), Set.end());
    std::sort(Sorted.begin(), Sorted.end());
    if (SeenSets.insert(Sorted).second)
      Info.PointLiveSets.push_back(std::move(Sorted));
  };

  std::vector<VertexId> &EntrySet = WS->acquireCleared(WS->Interference.Entry);
  std::vector<VertexId> &LiveList = WS->acquireCleared(WS->Interference.Live);
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);

    // Block entry: everything in LiveIn (which includes phi defs) is
    // simultaneously live.  Phi defs are born here, so they interfere with
    // all other live-in values (Chaitin edges at the def point).
    EntrySet.clear();
    Live.liveIn(B).forEach([&](std::size_t Bit) {
      EntrySet.push_back(static_cast<VertexId>(Bit));
    });
    for (const Instruction &I : BB.Instrs) {
      if (!I.isPhi())
        break;
      for (ValueId D : I.Defs)
        for (VertexId X : EntrySet)
          if (X != D && SameClass(D, X))
            AddEdge(D, X);
    }
    RecordPoint(EntrySet);

    // Body: walk the block backwards with the live set as a sorted list,
    // seeded from LiveOut, so each def meets the values live right after
    // it in ascending id order.  At each instruction, defs interfere with
    // everything live right after it (and with each other); then defs
    // leave the list and uses join it.  Phis are block-boundary effects,
    // handled above.
    LiveList.clear();
    Live.liveOut(B).forEach([&](std::size_t Bit) {
      LiveList.push_back(static_cast<VertexId>(Bit));
    });
    for (unsigned I = static_cast<unsigned>(BB.Instrs.size()); I-- > 0;) {
      const Instruction &Instr = BB.Instrs[I];
      if (Instr.isPhi())
        break;
      // The point right after Instr is the list plus Instr's dead defs: a
      // def that is never used still occupies a register at its definition
      // point.  They are appended past the sorted part while the defs are
      // visited and dropped again below.
      const size_t NumLive = LiveList.size();
      auto IsLive = [&](ValueId V) {
        return std::binary_search(LiveList.begin(), LiveList.begin() + NumLive,
                                  V);
      };
      for (ValueId D : Instr.Defs) {
        for (VertexId X : LiveList)
          if (X != D && SameClass(D, X))
            AddEdge(D, X);
        for (ValueId D2 : Instr.Defs)
          if (D2 != D && SameClass(D, D2))
            AddEdge(D, D2);
        if (!IsLive(D))
          LiveList.push_back(D);
      }
      RecordPoint(LiveList);
      LiveList.resize(NumLive);

      for (ValueId D : Instr.Defs) {
        auto It = std::lower_bound(LiveList.begin(), LiveList.end(), D);
        if (It != LiveList.end() && *It == D)
          LiveList.erase(It);
      }
      for (ValueId U : Instr.Uses) {
        if (U == kNoValue)
          continue;
        auto It = std::lower_bound(LiveList.begin(), LiveList.end(), U);
        if (It == LiveList.end() || *It != U)
          LiveList.insert(It, U);
      }

      unsigned Operands =
          static_cast<unsigned>(Instr.Defs.size() + Instr.Uses.size());
      Info.MinRegisters = std::max(Info.MinRegisters, Operands);
    }
  }
  if (Discovered)
    *Discovered = Edges;
  removeRepeatedEdges(Edges, F.numValues(), WS);
  Info.G = Graph(Costs, Edges);

  if (!MultiClass)
    Info.MaxLiveByClass[0] = Info.MaxLive;
  else
    for (unsigned PerClass : Info.MaxLiveByClass)
      Info.MaxLive = std::max(Info.MaxLive, PerClass);
  return Info;
}
