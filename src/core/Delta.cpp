//===- core/Delta.cpp - Warm-start delta allocation ------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/Delta.h"

#include "ir/Interference.h"
#include "obs/Trace.h"

#include <cstdint>

using namespace layra;

//===----------------------------------------------------------------------===//
// Block content hashing
//===----------------------------------------------------------------------===//

namespace {

// SplitMix64 finalizer; the same mixer family the driver's content hashes
// use, seeded differently so block hashes never collide with task hashes
// by construction of the streams.
uint64_t mix(uint64_t H, uint64_t V) {
  H += 0x9e3779b97f4a7c15ull + V;
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
  return H ^ (H >> 31);
}

/// Hash of *everything* in a block -- structure and non-structural fields
/// alike (frequencies, loop depths, opcode kinds, spill slots).  Two
/// blocks hash equal iff a resubmission left them untouched.
uint64_t hashBlockContent(const BasicBlock &BB) {
  uint64_t H = 0x64656c7461626173ull; // "deltabas"
  H = mix(H, BB.Preds.size());
  for (unsigned P : BB.Preds)
    H = mix(H, P);
  H = mix(H, BB.Succs.size());
  for (unsigned S : BB.Succs)
    H = mix(H, S);
  H = mix(H, BB.LoopDepth);
  H = mix(H, static_cast<uint64_t>(BB.Frequency));
  H = mix(H, BB.Instrs.size());
  for (const Instruction &I : BB.Instrs) {
    H = mix(H, static_cast<uint64_t>(I.Op));
    H = mix(H, I.Defs.size());
    for (ValueId V : I.Defs)
      H = mix(H, V);
    H = mix(H, I.Uses.size());
    for (ValueId V : I.Uses)
      H = mix(H, V);
    H = mix(H, static_cast<uint64_t>(I.SpillSlot));
    H = mix(H, I.MemUseSlots.size());
    for (int S : I.MemUseSlots)
      H = mix(H, static_cast<uint64_t>(S));
  }
  return H;
}

/// The structural (Tier-A) predicate: everything liveness and interference
/// construction read must match.  Opcode kinds may differ as long as
/// phi-ness is preserved (a Copy becoming an Op changes affinities, which
/// are recollected from the new function, never reused); frequencies,
/// loop depths and spill-slot bookkeeping are free to differ because only
/// spill *costs* depend on them and costs are recomputed per delta.
bool structurallyCompatible(const Function &Base, const Function &New,
                            std::string &Reason) {
  if (Base.numBlocks() != New.numBlocks()) {
    Reason = "block count differs";
    return false;
  }
  if (Base.numValues() != New.numValues()) {
    Reason = "value count differs";
    return false;
  }
  if (Base.maxValueClass() != New.maxValueClass()) {
    Reason = "max register class differs";
    return false;
  }
  for (ValueId V = 0; V < Base.numValues(); ++V)
    if (Base.valueClass(V) != New.valueClass(V)) {
      Reason = "register class of a value differs";
      return false;
    }
  for (unsigned B = 0; B < Base.numBlocks(); ++B) {
    const BasicBlock &BB = Base.block(B);
    const BasicBlock &NB = New.block(B);
    if (BB.Preds != NB.Preds || BB.Succs != NB.Succs) {
      Reason = "CFG edges differ";
      return false;
    }
    if (BB.Instrs.size() != NB.Instrs.size()) {
      Reason = "instruction count differs";
      return false;
    }
    for (size_t I = 0; I < BB.Instrs.size(); ++I) {
      const Instruction &BI = BB.Instrs[I];
      const Instruction &NI = NB.Instrs[I];
      if (BI.isPhi() != NI.isPhi()) {
        Reason = "phi-ness of an instruction differs";
        return false;
      }
      if (BI.Defs != NI.Defs || BI.Uses != NI.Uses) {
        Reason = "defs or uses of an instruction differ";
        return false;
      }
    }
  }
  return true;
}

} // namespace

FunctionDelta layra::computeFunctionDelta(const Function &Base,
                                          const Function &New) {
  FunctionDelta D;
  D.Compatible = structurallyCompatible(Base, New, D.Reason);
  if (!D.Compatible)
    return D;
  for (unsigned B = 0; B < Base.numBlocks(); ++B)
    if (hashBlockContent(Base.block(B)) != hashBlockContent(New.block(B)))
      D.ChangedBlocks.push_back(B);
  return D;
}

//===----------------------------------------------------------------------===//
// Delta problem construction
//===----------------------------------------------------------------------===//

bool layra::buildDeltaProblem(const DeltaBase &Base, const Function &F,
                              const TargetDesc &Target,
                              const std::vector<unsigned> &Budgets,
                              AllocationProblem &Out, bool &ExactRound0,
                              bool WithIntervals) {
  if (!Base.Live)
    return false; // Capture never completed; nothing to reuse.
  FunctionDelta D = computeFunctionDelta(Base.Ssa, F);
  if (!D.Compatible)
    return false;
  // Mirror ProblemBuilder's class trimming; an over-class function is
  // rejected here so the fallback path raises the canonical diagnostic.
  if (F.maxValueClass() >= Budgets.size())
    return false;
  PhaseSpan BuildSpan(Phase::ProblemBuild);
  std::vector<unsigned> UsedBudgets(Budgets.begin(),
                                    Budgets.begin() + F.maxValueClass() + 1);

  // Costs are the one input that may legitimately differ (frequencies,
  // opcode kinds); recompute them fully -- a linear pass.  The structural
  // predicate makes liveness, the interference graph, the PEO and the
  // clique tree provably equal to the base's, so those are never rebuilt.
  std::vector<Weight> NewCosts = computeSpillCosts(F, Target);
  if (NewCosts == Base.Costs) {
    if (UsedBudgets == Base.Problem.Budgets) {
      // Identical problem: the retained round-0 allocation is reusable
      // verbatim (allocateProblem is a pure function of the problem).
      Out = Base.Problem;
      ExactRound0 = true;
    } else {
      Out = Base.Problem.withBudgets(std::move(UsedBudgets));
      ExactRound0 = false;
    }
    // Intervals depend on structure and costs only, so the base's table is
    // exact when present; a base captured without one rebuilds it from the
    // retained liveness.
    if (!WithIntervals)
      Out.Intervals.reset();
    else if (!Out.Intervals)
      Out.Intervals = computeLiveIntervals(F, *Base.Live, NewCosts);
    return true;
  }

  // Costs changed: clone the graph (structure shared-nothing but cheap --
  // one copy, no edge recomputation) and refresh the vertex weights;
  // everything budget- and structure-shaped carries over.
  Graph NG(*Base.Problem.G);
  for (VertexId V = 0; V < NG.numVertices(); ++V)
    NG.setWeight(V, NewCosts[V]);
  Out.G = std::make_shared<Graph>(std::move(NG));
  Out.ClassOf = Base.Problem.ClassOf;
  Out.Constraints = Base.Problem.Constraints;
  for (PressureConstraint &C : Out.Constraints)
    C.Budget = UsedBudgets[C.Class];
  Out.Chordal = Base.Problem.Chordal;
  Out.Peo = Base.Problem.Peo;
  Out.Cliques = Base.Problem.Cliques;
  if (WithIntervals)
    Out.Intervals = computeLiveIntervals(F, *Base.Live, NewCosts);
  else
    Out.Intervals.reset();
  Out.Budgets = std::move(UsedBudgets);
  ExactRound0 = false;
  return true;
}
