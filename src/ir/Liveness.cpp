//===- ir/Liveness.cpp - Iterative backward liveness -----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Liveness.h"

#include "obs/Trace.h"

#include <algorithm>

using namespace layra;

namespace {
/// Row \p Row of a flat family of \p Words-word bit rows.
uint64_t *row(std::vector<uint64_t> &Family, size_t Row, size_t Words) {
  return Family.data() + Row * Words;
}

void setBit(uint64_t *Row, ValueId V) {
  Row[V >> 6] |= uint64_t(1) << (V & 63);
}

bool testBit(const uint64_t *Row, ValueId V) {
  return (Row[V >> 6] >> (V & 63)) & 1;
}
} // namespace

Liveness::Liveness(const Function &F) {
  PhaseSpan LivenessSpan(Phase::Liveness);
  unsigned NumBlocks = F.numBlocks();
  unsigned NumValues = F.numValues();
  LiveInSets.assign(NumBlocks, BitVector(NumValues));
  LiveOutSets.assign(NumBlocks, BitVector(NumValues));
  const size_t W = (size_t(NumValues) + 63) / 64;

  // Per-block summaries, one flat array of W-word rows per family: block
  // B's upward-exposed uses, kills and phi defs are row B of their family.
  // PhiUses has one row per incoming edge of each block with phis: row
  // PhiRow[B] + P holds the values B's phis consume along predecessor #P.
  constexpr uint32_t kNoRow = ~0u;
  std::vector<uint64_t> UpwardExposed(NumBlocks * W);
  std::vector<uint64_t> Kill(NumBlocks * W);
  std::vector<uint64_t> PhiDefs(NumBlocks * W);
  std::vector<uint64_t> PhiUses;
  std::vector<uint32_t> PhiRow(NumBlocks, kNoRow);
  size_t NumPhiRows = 0;
  for (BlockId B = 0; B < NumBlocks; ++B) {
    const BasicBlock &BB = F.block(B);
    uint64_t *Exposed = row(UpwardExposed, B, W);
    uint64_t *Killed = row(Kill, B, W);
    for (const Instruction &I : BB.Instrs) {
      if (I.isPhi()) {
        if (PhiRow[B] == kNoRow) {
          PhiRow[B] = static_cast<uint32_t>(NumPhiRows);
          NumPhiRows += BB.Preds.size();
          PhiUses.resize(NumPhiRows * W, 0);
        }
        for (ValueId V : I.Defs)
          setBit(row(PhiDefs, B, W), V);
        for (size_t P = 0; P < I.Uses.size(); ++P)
          if (I.Uses[P] != kNoValue) {
            assert(P < BB.Preds.size() && "phi operand without a predecessor");
            setBit(row(PhiUses, PhiRow[B] + P, W), I.Uses[P]);
          }
        continue;
      }
      for (ValueId V : I.Uses)
        if (V != kNoValue && !testBit(Killed, V))
          setBit(Exposed, V);
      for (ValueId V : I.Defs)
        setBit(Killed, V);
    }
  }

  // The CFG edges in successor order, each with the phi-use row it feeds
  // (B's position in the successor's pred list; kNoRow when the successor
  // has no phis).
  struct OutEdge {
    BlockId Succ;
    uint32_t PhiUseRow;
  };
  std::vector<uint32_t> EdgeStart(NumBlocks + 1, 0);
  std::vector<OutEdge> Edges;
  for (BlockId B = 0; B < NumBlocks; ++B) {
    EdgeStart[B] = static_cast<uint32_t>(Edges.size());
    for (BlockId S : F.block(B).Succs) {
      uint32_t UseRow = kNoRow;
      if (PhiRow[S] != kNoRow) {
        const std::vector<BlockId> &Preds = F.block(S).Preds;
        auto It = std::find(Preds.begin(), Preds.end(), B);
        assert(It != Preds.end() && "CFG edge without matching pred entry");
        UseRow = PhiRow[S] + static_cast<uint32_t>(It - Preds.begin());
      }
      Edges.push_back({S, UseRow});
    }
  }
  EdgeStart[NumBlocks] = static_cast<uint32_t>(Edges.size());

  // Round-robin iteration to the fixed point, one fused word loop per CFG
  // edge and one per block.  It settles in a few sweeps (at most 3 on the
  // benchmark's largest functions), so the cost is the vector width.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = NumBlocks; I-- > 0;) {
      BlockId B = I;
      uint64_t *Out = LiveOutSets[B].words();
      uint64_t Diff = 0;
      // LiveOut(B) = union over successors S of
      //   (LiveIn(S) \ PhiDefs(S)) + PhiUses(S, edge B->S).
      for (uint32_t E = EdgeStart[B]; E < EdgeStart[B + 1]; ++E) {
        const uint64_t *In = LiveInSets[Edges[E].Succ].words();
        if (Edges[E].PhiUseRow == kNoRow) {
          for (size_t K = 0; K < W; ++K) {
            uint64_t New = Out[K] | In[K];
            Diff |= New ^ Out[K];
            Out[K] = New;
          }
          continue;
        }
        const uint64_t *Defs = row(PhiDefs, Edges[E].Succ, W);
        const uint64_t *Uses = row(PhiUses, Edges[E].PhiUseRow, W);
        for (size_t K = 0; K < W; ++K) {
          uint64_t New = Out[K] | (In[K] & ~Defs[K]) | Uses[K];
          Diff |= New ^ Out[K];
          Out[K] = New;
        }
      }
      // LiveIn(B) = PhiDefs(B) + UpwardExposed(B) + (LiveOut(B) \ Kill(B)).
      uint64_t *In = LiveInSets[B].words();
      const uint64_t *Defs = row(PhiDefs, B, W);
      const uint64_t *Exposed = row(UpwardExposed, B, W);
      const uint64_t *Killed = row(Kill, B, W);
      for (size_t K = 0; K < W; ++K) {
        uint64_t New = In[K] | Defs[K] | Exposed[K] | (Out[K] & ~Killed[K]);
        Diff |= New ^ In[K];
        In[K] = New;
      }
      Changed |= Diff != 0;
    }
  }
}

unsigned Liveness::maxLive(const Function &F) const {
  unsigned Max = 0;
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    Max = std::max(Max, static_cast<unsigned>(liveIn(B).count()));
    walkBlockBackward(F, B, [&](unsigned I, const BitVector &Live) {
      // A def that is never used still occupies a register at its def point.
      unsigned DeadDefs = 0;
      for (ValueId V : F.block(B).Instrs[I].Defs)
        if (!Live.test(V))
          ++DeadDefs;
      Max = std::max(Max, static_cast<unsigned>(Live.count()) + DeadDefs);
    });
  }
  return Max;
}

unsigned Liveness::pressureAfter(const Function &F, BlockId B,
                                 unsigned Index) const {
  unsigned Result = 0;
  bool Found = false;
  walkBlockBackward(F, B, [&](unsigned I, const BitVector &Live) {
    if (I == Index) {
      Result = static_cast<unsigned>(Live.count());
      Found = true;
    }
  });
  assert(Found && "pressureAfter: no such instruction (phi or out of range)");
  (void)Found;
  return Result;
}
