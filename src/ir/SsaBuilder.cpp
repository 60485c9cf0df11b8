//===- ir/SsaBuilder.cpp - SSA construction ---------------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/SsaBuilder.h"

#include "ir/Dominators.h"
#include "ir/Liveness.h"
#include "obs/Trace.h"
#include "support/Compiler.h"
#include <cstdio>

#include <algorithm>
#include <string>

using namespace layra;

namespace {
/// State threaded through the renaming walk.
struct RenameState {
  const Function &Old;
  Function &New;
  SsaConversion &Out;
  DominatorTree &Dom;
  /// PhiVars[B] = original variables needing a phi at block B.
  std::vector<std::vector<ValueId>> PhiVars;
  /// Reaching definition stack per original variable.
  std::vector<std::vector<ValueId>> Stack;
  /// Version counters for naming.
  std::vector<unsigned> Version;

  ValueId freshValue(ValueId OldVar) {
    std::string Base = Old.valueName(OldVar);
    if (Base.empty())
      Base = "v" + std::to_string(OldVar);
    // Every SSA version of a variable lives in the variable's register
    // class; classes partition values, SSA renaming must not move them.
    ValueId Id =
        New.makeValue(Base + "." + std::to_string(Version[OldVar]++),
                      Old.valueClass(OldVar));
    assert(Id == Out.OriginalOf.size() && "value ids must stay dense");
    Out.OriginalOf.push_back(OldVar);
    return Id;
  }

  ValueId reachingDef(ValueId OldVar) const {
    return Stack[OldVar].empty() ? kNoValue : Stack[OldVar].back();
  }
};
} // namespace

/// Renames block \p B and recurses over dominator-tree children.
static void renameBlock(RenameState &S, BlockId B) {
  size_t PushedCount = 0;
  std::vector<ValueId> PushedVars; // To pop on exit, in order.

  BasicBlock &NewBB = S.New.block(B);
  // Phi shells were created before the walk (successor edges may feed them
  // before this block is renamed); here we only mint their defs.
  for (size_t PhiIndex = 0; PhiIndex < S.PhiVars[B].size(); ++PhiIndex) {
    ValueId OldVar = S.PhiVars[B][PhiIndex];
    Instruction &Phi = NewBB.Instrs[PhiIndex];
    assert(Phi.isPhi() && Phi.Defs.empty() && "phi shell malformed");
    ValueId NewDef = S.freshValue(OldVar);
    Phi.Defs.push_back(NewDef);
    S.Stack[OldVar].push_back(NewDef);
    PushedVars.push_back(OldVar);
    ++PushedCount;
    ++S.Out.NumPhis;
  }

  for (const Instruction &OldInstr : S.Old.block(B).Instrs) {
    Instruction NewInstr;
    NewInstr.Op = OldInstr.Op;
    NewInstr.SpillSlot = OldInstr.SpillSlot;
    // Renaming an input phi would look up each operand at the phi's own
    // block, where a back-edge or branch-arm def does not reach: the
    // operand would silently become undefined.
    if (OldInstr.isPhi())
      layraFatalError("input to SSA construction already has phis");
    for (ValueId V : OldInstr.Uses) {
      ValueId Def = S.reachingDef(V);
      assert(Def != kNoValue && "use before any def; generator bug?");
      NewInstr.Uses.push_back(Def);
    }
    for (ValueId V : OldInstr.Defs) {
      ValueId NewDef = S.freshValue(V);
      NewInstr.Defs.push_back(NewDef);
      S.Stack[V].push_back(NewDef);
      PushedVars.push_back(V);
      ++PushedCount;
    }
    NewBB.Instrs.push_back(std::move(NewInstr));
  }

  // Feed phi operands of successors along each outgoing edge.  The operand
  // slot is indexed by the *new* function's predecessor order (the clone may
  // list predecessors in a different order than the original).
  for (BlockId Succ : S.Old.block(B).Succs) {
    const std::vector<BlockId> &Preds = S.New.block(Succ).Preds;
    auto It = std::find(Preds.begin(), Preds.end(), B);
    assert(It != Preds.end() && "asymmetric CFG edge");
    size_t PredIndex = static_cast<size_t>(It - Preds.begin());
    BasicBlock &SuccBB = S.New.block(Succ);
    for (size_t PhiIndex = 0; PhiIndex < S.PhiVars[Succ].size(); ++PhiIndex) {
      ValueId OldVar = S.PhiVars[Succ][PhiIndex];
      Instruction &Phi = SuccBB.Instrs[PhiIndex];
      assert(Phi.isPhi() && "phi shell missing");
      Phi.Uses[PredIndex] = S.reachingDef(OldVar);
    }
  }

  for (BlockId Kid : S.Dom.children(B))
    renameBlock(S, Kid);

  for (size_t I = PushedCount; I-- > 0;)
    S.Stack[PushedVars[I]].pop_back();
}

SsaConversion layra::convertToSsa(const Function &F) {
  assert(verifyFunction(F) && "convertToSsa requires a verified function");
  PhaseSpan SsaSpan(Phase::Ssa);
  SsaConversion Out;
  Out.Ssa = Function(F.name());

  // Clone the CFG skeleton (blocks, names, frequencies, edges).
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    BlockId NewB = Out.Ssa.makeBlock(F.block(B).Name);
    assert(NewB == B && "block ids must be preserved");
    Out.Ssa.block(NewB).LoopDepth = F.block(B).LoopDepth;
    Out.Ssa.block(NewB).Frequency = F.block(B).Frequency;
  }
  for (BlockId B = 0; B < F.numBlocks(); ++B)
    for (BlockId S : F.block(B).Succs)
      Out.Ssa.addEdge(B, S);

  DominatorTree Dom(F);
  Liveness Live(F);

  // Phi placement: iterated dominance frontier of each variable's def
  // blocks, pruned to blocks where the variable is live-in.
  std::vector<std::vector<BlockId>> DefBlocksOf(F.numValues());
  for (BlockId B = 0; B < F.numBlocks(); ++B)
    for (const Instruction &I : F.block(B).Instrs)
      for (ValueId V : I.Defs) {
        std::vector<BlockId> &DB = DefBlocksOf[V];
        if (DB.empty() || DB.back() != B)
          DB.push_back(B);
      }

  std::vector<std::vector<ValueId>> PhiVars(F.numBlocks());
  std::vector<unsigned> Placed(F.numBlocks(), ~0u); // Last var placed per block.
  for (ValueId V = 0; V < F.numValues(); ++V) {
    std::vector<BlockId> Work = DefBlocksOf[V];
    std::vector<char> InWork(F.numBlocks(), 0);
    for (BlockId B : Work)
      InWork[B] = 1;
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      if (!Dom.isReachable(B))
        continue;
      for (BlockId J : Dom.dominanceFrontier(B)) {
        if (Placed[J] == V)
          continue;
        if (!Live.liveIn(J).test(V))
          continue; // Pruned SSA: dead at the join, no phi needed.
        Placed[J] = V;
        PhiVars[J].push_back(V);
        if (!InWork[J]) {
          InWork[J] = 1;
          Work.push_back(J);
        }
      }
    }
  }

  for (BlockId B = 0; B < F.numBlocks(); ++B)
    assert(Dom.isReachable(B) && "convertToSsa requires a reachable CFG");

  // Create phi shells up front: operand feeding along CFG edges can happen
  // before the owning block is renamed.
  for (BlockId B = 0; B < F.numBlocks(); ++B)
    for (size_t I = 0; I < PhiVars[B].size(); ++I) {
      Instruction Phi;
      Phi.Op = Opcode::Phi;
      Phi.Uses.assign(F.block(B).Preds.size(), kNoValue);
      Out.Ssa.block(B).Instrs.push_back(std::move(Phi));
    }

  RenameState S{F,
                Out.Ssa,
                Out,
                Dom,
                std::move(PhiVars),
                std::vector<std::vector<ValueId>>(F.numValues()),
                std::vector<unsigned>(F.numValues(), 0)};
  renameBlock(S, F.entry());

#ifndef NDEBUG
  std::string VerifyError;
  if (!verifyFunction(Out.Ssa, /*ExpectSsa=*/true, &VerifyError)) {
    std::fprintf(stderr, "convertToSsa produced invalid SSA: %s\n%s\n",
                 VerifyError.c_str(), Out.Ssa.toString().c_str());
    layraFatalError("SSA construction produced invalid SSA");
  }
#endif
  return Out;
}
