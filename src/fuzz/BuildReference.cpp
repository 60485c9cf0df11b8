//===- fuzz/BuildReference.cpp - Reference problem construction -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "fuzz/BuildReference.h"

#include "graph/Chordal.h"
#include "ir/Interference.h"
#include "ir/Liveness.h"

#include <algorithm>

using namespace layra;

namespace {

/// The backward dataflow fixed point with one bit vector per block and
/// summary, and one per predecessor edge for phi uses.
void referenceLiveness(const Function &F, std::vector<BitVector> &LiveIn,
                       std::vector<BitVector> &LiveOut) {
  unsigned NumBlocks = F.numBlocks();
  unsigned NumValues = F.numValues();
  LiveIn.assign(NumBlocks, BitVector(NumValues));
  LiveOut.assign(NumBlocks, BitVector(NumValues));

  std::vector<BitVector> UpwardExposed(NumBlocks, BitVector(NumValues));
  std::vector<BitVector> Kill(NumBlocks, BitVector(NumValues));
  std::vector<BitVector> PhiDefs(NumBlocks, BitVector(NumValues));
  // PhiUsesFrom[B][P]: values consumed by phis of B along predecessor #P.
  std::vector<std::vector<BitVector>> PhiUsesFrom(NumBlocks);
  for (BlockId B = 0; B < NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    PhiUsesFrom[B].assign(BB.Preds.size(), BitVector(NumValues));
    for (const Instruction &I : BB.Instrs) {
      if (I.isPhi()) {
        for (ValueId V : I.Defs)
          PhiDefs[B].set(V);
        for (size_t P = 0; P < I.Uses.size(); ++P)
          if (I.Uses[P] != kNoValue)
            PhiUsesFrom[B][P].set(I.Uses[P]);
        continue;
      }
      for (ValueId V : I.Uses)
        if (V != kNoValue && !Kill[B].test(V))
          UpwardExposed[B].set(V);
      for (ValueId V : I.Defs)
        Kill[B].set(V);
    }
  }

  auto PredIndexIn = [&](BlockId Succ, BlockId B) -> size_t {
    const std::vector<BlockId> &Preds = F.block(Succ).Preds;
    return static_cast<size_t>(std::find(Preds.begin(), Preds.end(), B) -
                               Preds.begin());
  };
  bool Changed = true;
  BitVector Tmp(NumValues);
  while (Changed) {
    Changed = false;
    for (unsigned I = NumBlocks; I-- > 0;) {
      BlockId B = I;
      // LiveOut(B) = union over successors S of
      //   (LiveIn(S) \ PhiDefs(S)) + PhiUsesFrom(S, edge B->S).
      for (BlockId S : F.block(B).Succs) {
        Tmp = LiveIn[S];
        Tmp.subtract(PhiDefs[S]);
        Changed |= LiveOut[B].unionWith(Tmp);
        Changed |= LiveOut[B].unionWith(PhiUsesFrom[S][PredIndexIn(S, B)]);
      }
      // LiveIn(B) = PhiDefs(B) + UpwardExposed(B) + (LiveOut(B) \ Kill(B)).
      Tmp = LiveOut[B];
      Tmp.subtract(Kill[B]);
      Tmp.unionWith(UpwardExposed[B]);
      Tmp.unionWith(PhiDefs[B]);
      Changed |= LiveIn[B].unionWith(Tmp);
    }
  }
}

/// The interference walk over \p LiveIn / \p LiveOut with the live set as
/// a bit vector, expanded at every instruction: the edges in discovery
/// order, repeats included.
std::vector<GraphEdge>
referenceDiscoveredEdges(const Function &F,
                         const std::vector<BitVector> &LiveIn,
                         const std::vector<BitVector> &LiveOut) {
  const bool MultiClass = F.maxValueClass() > 0;
  auto SameClass = [&](ValueId A, ValueId B) {
    return !MultiClass || F.valueClass(A) == F.valueClass(B);
  };
  std::vector<GraphEdge> Edges;
  std::vector<VertexId> Point;
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &BB = F.block(B);
    // Phi defs are born at the block entry, where all of LiveIn is live.
    std::vector<unsigned> Entry = LiveIn[B].toIndices();
    for (const Instruction &I : BB.Instrs) {
      if (!I.isPhi())
        break;
      for (ValueId D : I.Defs)
        for (VertexId X : Entry)
          if (X != D && SameClass(D, X))
            Edges.push_back({D, X});
    }
    // Each def meets everything live right after its instruction, then
    // the instruction's other defs; a dead def joins that point.
    BitVector Live = LiveOut[B];
    for (unsigned I = static_cast<unsigned>(BB.Instrs.size()); I-- > 0;) {
      const Instruction &Instr = BB.Instrs[I];
      if (Instr.isPhi())
        break;
      Point = Live.toIndices();
      for (ValueId D : Instr.Defs) {
        for (VertexId X : Point)
          if (X != D && SameClass(D, X))
            Edges.push_back({D, X});
        for (ValueId D2 : Instr.Defs)
          if (D2 != D && SameClass(D, D2))
            Edges.push_back({D, D2});
        if (!Live.test(D))
          Point.push_back(D);
      }
      for (ValueId V : Instr.Defs)
        Live.reset(V);
      for (ValueId V : Instr.Uses)
        if (V != kNoValue)
          Live.set(V);
    }
  }
  return Edges;
}

} // namespace

ReferenceGraph layra::referenceInterferenceGraph(const Function &F,
                                                 const TargetDesc &Target,
                                                 size_t *Repeats) {
  ReferenceGraph G;
  referenceLiveness(F, G.LiveIn, G.LiveOut);
  G.Discovered = referenceDiscoveredEdges(F, G.LiveIn, G.LiveOut);
  G.Weights = computeSpillCosts(F, Target);
  G.Neighbors.resize(F.numValues());
  size_t Dropped = 0;
  for (const GraphEdge &E : G.Discovered) {
    std::vector<VertexId> &AtU = G.Neighbors[E.U];
    std::vector<VertexId> &AtV = G.Neighbors[E.V];
    bool Present = AtU.size() <= AtV.size()
                       ? std::find(AtU.begin(), AtU.end(), E.V) != AtU.end()
                       : std::find(AtV.begin(), AtV.end(), E.U) != AtV.end();
    if (Present) {
      ++Dropped;
      continue;
    }
    AtU.push_back(E.V);
    AtV.push_back(E.U);
    ++G.NumEdges;
  }
  if (Repeats)
    *Repeats = Dropped;
  return G;
}

std::string layra::diffAgainstReference(const Function &F,
                                        const AllocationProblem &P,
                                        const ReferenceGraph &Reference) {
  Liveness Live(F);
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    std::string At = " of block " + std::to_string(B);
    if (!(Live.liveIn(B) == Reference.LiveIn[B]))
      return "live-in set" + At + " differs from the reference";
    if (!(Live.liveOut(B) == Reference.LiveOut[B]))
      return "live-out set" + At + " differs from the reference";
  }
  std::vector<GraphEdge> Discovered;
  buildInterference(F, Live, Reference.Weights, nullptr,
                    /*CollectPointSets=*/false, &Discovered);
  if (Discovered.size() != Reference.Discovered.size())
    return "the walk discovered " + std::to_string(Discovered.size()) +
           " edges, the reference " +
           std::to_string(Reference.Discovered.size());
  for (size_t I = 0; I < Discovered.size(); ++I)
    if (Discovered[I].U != Reference.Discovered[I].U ||
        Discovered[I].V != Reference.Discovered[I].V)
      return "discovered edge " + std::to_string(I) +
             " differs from the reference";

  const Graph &G = P.graph();
  if (G.numVertices() != Reference.Weights.size())
    return "vertex count " + std::to_string(G.numVertices()) +
           " differs from the reference's " +
           std::to_string(Reference.Weights.size());
  if (G.numEdges() != Reference.NumEdges)
    return "edge count " + std::to_string(G.numEdges()) +
           " differs from the reference's " +
           std::to_string(Reference.NumEdges);
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    std::string At = " of vertex " + std::to_string(V);
    if (G.weight(V) != Reference.Weights[V])
      return "weight" + At + " differs from the reference";
    const std::vector<VertexId> &Want = Reference.Neighbors[V];
    if (G.neighbors(V) != NeighborRange(Want.data(), Want.data() + Want.size()))
      return "neighbor list" + At + " differs from the reference";
  }
  if (!P.Chordal)
    return {};

  // G's lists now equal the reference's, so the reference passes run on G.
  EliminationOrder Peo = maximumCardinalitySearch(G);
  if (!isPerfectEliminationOrder(G, Peo))
    return "the reference MCS order is not a PEO, yet the build accepted it";
  if (P.Peo.Order != Peo.Order || P.Peo.Position != Peo.Position)
    return "elimination order differs from the reference MCS";
  // Later lists and parents by a scan of G under the order.
  unsigned N = G.numVertices();
  if (P.Peo.LaterStart.size() != N + 1 || P.Peo.Parent.size() != N)
    return "later lists are not sized for the graph";
  std::vector<VertexId> Later;
  for (unsigned I = 0; I < N; ++I) {
    std::string At = " at PEO position " + std::to_string(I);
    Later.clear();
    VertexId Parent = EliminationOrder::kNoParent;
    for (VertexId U : G.neighbors(P.Peo.Order[I])) {
      if (P.Peo.Position[U] <= I)
        continue;
      Later.push_back(U);
      if (Parent == EliminationOrder::kNoParent ||
          P.Peo.Position[U] < P.Peo.Position[Parent])
        Parent = U;
    }
    if (P.Peo.laterAt(I) !=
        NeighborRange(Later.data(), Later.data() + Later.size()))
      return "later list" + At + " differs from a scan of the graph";
    if (P.Peo.Parent[I] != Parent)
      return "parent" + At + " differs from a scan of the graph";
  }
  if (P.Cliques != maximalCliquesChordal(G, Peo))
    return "clique cover differs from maximalCliquesChordal";
  return {};
}
