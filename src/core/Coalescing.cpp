//===- core/Coalescing.cpp - Affinities and conservative coalescing --------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/Coalescing.h"

#include <algorithm>
#include <map>

using namespace layra;

std::vector<Affinity> layra::collectAffinities(const Function &F) {
  std::map<std::pair<ValueId, ValueId>, Weight> Merged;
  auto Note = [&](ValueId A, ValueId B, Weight Benefit) {
    if (A == B || A == kNoValue || B == kNoValue)
      return;
    // A cross-class copy is a conversion between register files: the two
    // values can never share a register, so it is not an affinity.
    if (F.valueClass(A) != F.valueClass(B))
      return;
    if (A > B)
      std::swap(A, B);
    Merged[{A, B}] += Benefit;
  };

  for (BlockId Blk = 0; Blk < F.numBlocks(); ++Blk) {
    const BasicBlock &BB = F.block(Blk);
    for (const Instruction &I : BB.Instrs) {
      if (I.Op == Opcode::Copy) {
        assert(I.Defs.size() == 1 && I.Uses.size() == 1 && "malformed copy");
        Note(I.Defs[0], I.Uses[0], BB.Frequency);
        continue;
      }
      if (I.isPhi()) {
        // A phi is a parallel copy on each incoming edge; merging the def
        // with an operand saves the move in the corresponding predecessor.
        for (size_t P = 0; P < I.Uses.size(); ++P)
          if (I.Uses[P] != kNoValue)
            Note(I.Defs[0], I.Uses[P], F.block(BB.Preds[P]).Frequency);
      }
    }
  }

  std::vector<Affinity> Out;
  Out.reserve(Merged.size());
  for (const auto &[Pair, Benefit] : Merged)
    Out.push_back({Pair.first, Pair.second, Benefit});
  return Out;
}

CoalescingResult
layra::coalesceConservative(const Graph &G,
                            const std::vector<Affinity> &Affinities,
                            unsigned NumRegisters) {
  unsigned N = G.numVertices();
  CoalescingResult Out;
  Out.Representative.resize(N);
  for (VertexId V = 0; V < N; ++V)
    Out.Representative[V] = V;

  // Union-find with path halving; merged adjacency kept as sorted vectors
  // rebuilt lazily per merge (graphs here are small enough).
  auto Find = [&](VertexId V) {
    while (Out.Representative[V] != V) {
      Out.Representative[V] = Out.Representative[Out.Representative[V]];
      V = Out.Representative[V];
    }
    return V;
  };

  // Current adjacency (over representatives) as sorted vectors.
  std::vector<std::vector<VertexId>> Adj(N);
  for (VertexId V = 0; V < N; ++V) {
    Adj[V].assign(G.neighbors(V).begin(), G.neighbors(V).end());
    std::sort(Adj[V].begin(), Adj[V].end());
  }

  std::vector<Affinity> Queue = Affinities;
  std::sort(Queue.begin(), Queue.end(), [](const Affinity &X,
                                           const Affinity &Y) {
    if (X.Benefit != Y.Benefit)
      return X.Benefit > Y.Benefit;
    if (X.A != Y.A)
      return X.A < Y.A;
    return X.B < Y.B;
  });

  auto Degree = [&](VertexId Rep) {
    return static_cast<unsigned>(Adj[Rep].size());
  };

  for (const Affinity &Aff : Queue) {
    VertexId A = Find(Aff.A), B = Find(Aff.B);
    if (A == B)
      continue; // Already merged transitively: benefit realized for free.
    if (std::binary_search(Adj[A].begin(), Adj[A].end(), B))
      continue; // Interfering: cannot share a register.

    // Briggs test: the merged node must have < R neighbors of significant
    // (>= R) degree, so colorability cannot get worse.
    std::vector<VertexId> Union;
    std::set_union(Adj[A].begin(), Adj[A].end(), Adj[B].begin(),
                   Adj[B].end(), std::back_inserter(Union));
    unsigned Significant = 0;
    for (VertexId U : Union)
      Significant += Degree(Find(U)) >= NumRegisters ? 1 : 0;
    if (Significant >= NumRegisters)
      continue;

    // Merge B into A.
    Out.Representative[B] = A;
    Adj[A] = std::move(Union);
    // Rewire neighbors of B to point at A.
    for (VertexId U : Adj[B]) {
      std::vector<VertexId> &List = Adj[U];
      auto It = std::lower_bound(List.begin(), List.end(), B);
      if (It != List.end() && *It == B)
        List.erase(It);
      It = std::lower_bound(List.begin(), List.end(), A);
      if (It == List.end() || *It != A)
        List.insert(It, A);
    }
    Adj[B].clear();
    ++Out.Merged;
    Out.BenefitRealized += Aff.Benefit;
  }

  // Build the coalesced graph over representatives.  Merged nodes can
  // repeat an edge; the stable dedup keeps each one's first occurrence.
  Out.CoalescedIndex.assign(N, ~0u);
  std::vector<Weight> Weights;
  for (VertexId V = 0; V < N; ++V) {
    VertexId Rep = Find(V);
    if (Out.CoalescedIndex[Rep] == ~0u) {
      Out.CoalescedIndex[Rep] = static_cast<VertexId>(Weights.size());
      Weights.push_back(0);
    }
  }
  for (VertexId V = 0; V < N; ++V) {
    VertexId Id = Out.CoalescedIndex[Find(V)];
    Weights[Id] += G.weight(V);
    Out.CoalescedIndex[V] = Id; // Every vertex maps to its merged node.
  }
  std::vector<GraphEdge> Edges;
  for (VertexId V = 0; V < N; ++V)
    for (VertexId U : G.neighbors(V)) {
      VertexId A = Out.CoalescedIndex[V], B = Out.CoalescedIndex[U];
      if (A != B && V < U)
        Edges.push_back({A, B});
    }
  removeRepeatedEdges(Edges, static_cast<unsigned>(Weights.size()));
  Out.Coalesced = Graph(std::move(Weights), Edges);
  // Flatten representatives for the caller.
  for (VertexId V = 0; V < N; ++V)
    Out.Representative[V] = Find(V);
  return Out;
}

Assignment layra::assignRegistersBiased(
    const AllocationProblem &P, const std::vector<char> &Allocated,
    const std::vector<Affinity> &Affinities) {
  assert(Allocated.size() == P.graph().numVertices() && "flag size mismatch");
  Assignment Out;
  Out.RegisterOf.assign(P.graph().numVertices(), Assignment::kNoRegister);
  Out.ClassOf.assign(P.ClassOf.begin(), P.ClassOf.end());
  Out.ClassOf.resize(P.graph().numVertices(), 0);

  // Affinity adjacency with benefits, for the color preference.
  std::vector<std::vector<std::pair<VertexId, Weight>>> Wants(
      P.graph().numVertices());
  for (const Affinity &A : Affinities) {
    if (A.A >= P.graph().numVertices() || A.B >= P.graph().numVertices())
      continue;
    Wants[A.A].push_back({A.B, A.Benefit});
    Wants[A.B].push_back({A.A, A.Benefit});
  }

  std::vector<VertexId> Sequence;
  if (P.Chordal) {
    for (auto It = P.Peo.Order.rbegin(); It != P.Peo.Order.rend(); ++It)
      if (Allocated[*It])
        Sequence.push_back(*It);
  } else {
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      if (Allocated[V])
        Sequence.push_back(V);
  }

  std::vector<char> Used;
  std::vector<Weight> Preference;
  Out.Success = true;
  for (VertexId V : Sequence) {
    unsigned Budget =
        std::max(P.budgetOf(P.classOf(V)), P.graph().degree(V) + 1);
    Used.assign(Budget, 0);
    Preference.assign(Budget, 0);
    for (VertexId U : P.graph().neighbors(V)) {
      unsigned Reg = Out.RegisterOf[U];
      if (Reg != Assignment::kNoRegister && Reg < Used.size())
        Used[Reg] = 1;
    }
    // Score free registers by the benefit of co-locating with already
    // colored affinity partners.
    for (const auto &[Partner, Benefit] : Wants[V]) {
      unsigned Reg = Out.RegisterOf[Partner];
      if (Reg != Assignment::kNoRegister && Reg < Budget && !Used[Reg])
        Preference[Reg] += Benefit;
    }
    unsigned BestReg = ~0u;
    for (unsigned Reg = 0; Reg < Budget; ++Reg) {
      if (Used[Reg])
        continue;
      if (BestReg == ~0u || Preference[Reg] > Preference[BestReg])
        BestReg = Reg;
    }
    assert(BestReg != ~0u && "no free register within degree+1 budget");
    Out.RegisterOf[V] = BestReg;
    Out.RegistersUsed = std::max(Out.RegistersUsed, BestReg + 1);
    Out.Success &= BestReg < P.budgetOf(P.classOf(V));
  }
  return Out;
}

Weight layra::remainingCopyCost(const std::vector<Affinity> &Affinities,
                                const std::vector<char> &Allocated,
                                const std::vector<unsigned> &RegisterOf) {
  Weight Cost = 0;
  for (const Affinity &A : Affinities) {
    if (A.A >= Allocated.size() || A.B >= Allocated.size())
      continue;
    bool SameReg = Allocated[A.A] && Allocated[A.B] &&
                   RegisterOf[A.A] == RegisterOf[A.B];
    if (!SameReg)
      Cost += A.Benefit;
  }
  return Cost;
}
