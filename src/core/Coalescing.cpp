//===- core/Coalescing.cpp - Affinities and biased assignment -------------===//
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

  // Color allocated vertices greedily in reverse elimination order.  For a
  // chordal instance P.Peo restricted to the allocated set is a PEO of the
  // induced subgraph, so the scan is optimal there; general instances fall
  // back to a max-degree-first order.
  std::vector<VertexId> Sequence;
  if (P.Chordal) {
    for (auto It = P.Peo.Order.rbegin(); It != P.Peo.Order.rend(); ++It)
      if (Allocated[*It])
        Sequence.push_back(*It);
  } else {
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      if (Allocated[V])
        Sequence.push_back(V);
    std::sort(Sequence.begin(), Sequence.end(), [&](VertexId A, VertexId B) {
      if (P.graph().degree(A) != P.graph().degree(B))
        return P.graph().degree(A) > P.graph().degree(B);
      return A < B;
    });
  }

  std::vector<char> Used;
  std::vector<Weight> Preference;
  Out.Success = true;
  for (VertexId V : Sequence) {
    unsigned Budget =
        std::max(P.budgetOf(P.classOf(V)), P.graph().degree(V) + 1);
    Used.assign(Budget, 0);
    for (VertexId U : P.graph().neighbors(V)) {
      unsigned Reg = Out.RegisterOf[U];
      if (Reg != Assignment::kNoRegister && Reg < Used.size())
        Used[Reg] = 1;
    }
    // The lowest free register (one exists: V has at most Budget - 1
    // neighbors), unless a higher free one holds more benefit among V's
    // already colored affinity partners.
    unsigned BestReg = 0;
    while (Used[BestReg])
      ++BestReg;
    if (!Wants[V].empty()) {
      Preference.assign(Budget, 0);
      for (const auto &[Partner, Benefit] : Wants[V]) {
        unsigned Reg = Out.RegisterOf[Partner];
        if (Reg != Assignment::kNoRegister && Reg < Budget && !Used[Reg])
          Preference[Reg] += Benefit;
      }
      for (unsigned Reg = BestReg + 1; Reg < Budget; ++Reg)
        if (!Used[Reg] && Preference[Reg] > Preference[BestReg])
          BestReg = Reg;
    }
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
