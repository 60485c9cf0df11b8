//===- Checker.cpp - Output checks independent of the library --------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Checker.h"

#include <algorithm>
#include <cstdint>

using namespace layra;
using namespace perfbench;

namespace {

/// Fixed-size bit set over value ids.
class Bits {
public:
  explicit Bits(size_t N = 0) : Words((N + 63) / 64, 0) {}
  bool test(size_t I) const { return (Words[I >> 6] >> (I & 63)) & 1; }
  void set(size_t I) { Words[I >> 6] |= uint64_t(1) << (I & 63); }
  void reset(size_t I) { Words[I >> 6] &= ~(uint64_t(1) << (I & 63)); }
  /// this |= Other; true when a bit changed.
  bool unite(const Bits &Other) {
    bool Changed = false;
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t Next = Words[W] | Other.Words[W];
      Changed |= Next != Words[W];
      Words[W] = Next;
    }
    return Changed;
  }
  /// this |= (A & ~B); true when a bit changed.
  bool uniteMinus(const Bits &A, const Bits &B) {
    bool Changed = false;
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t Next = Words[W] | (A.Words[W] & ~B.Words[W]);
      Changed |= Next != Words[W];
      Words[W] = Next;
    }
    return Changed;
  }
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t W = 0; W < Words.size(); ++W)
      for (uint64_t Rest = Words[W]; Rest; Rest &= Rest - 1)
        Fn(W * 64 + size_t(__builtin_ctzll(Rest)));
  }

private:
  std::vector<uint64_t> Words;
};

std::string valueText(const Function &F, ValueId V) {
  const std::string &Name = F.valueName(V);
  return "%" + (Name.empty() ? std::to_string(V) : Name);
}

/// Per-block live-out sets under SSA phi semantics: a phi operand is live
/// out of the predecessor it flows from, and a phi def is defined at the
/// top of its block (never live in).
std::vector<Bits> computeLiveOut(const Function &F) {
  const size_t N = F.numValues(), B = F.numBlocks();
  std::vector<Bits> UpUse(B, Bits(N)), Kill(B, Bits(N)), PhiOut(B, Bits(N));
  for (BlockId Blk = 0; Blk < B; ++Blk) {
    const BasicBlock &BB = F.block(Blk);
    Bits Defined(N);
    for (const Instruction &I : BB.Instrs) {
      if (I.isPhi()) {
        for (size_t K = 0; K < I.Uses.size() && K < BB.Preds.size(); ++K)
          if (I.Uses[K] != kNoValue)
            PhiOut[BB.Preds[K]].set(I.Uses[K]);
      } else {
        for (ValueId U : I.Uses)
          if (U != kNoValue && !Defined.test(U))
            UpUse[Blk].set(U);
      }
      for (ValueId D : I.Defs) {
        Defined.set(D);
        Kill[Blk].set(D);
      }
    }
  }
  std::vector<Bits> LiveIn(B, Bits(N)), LiveOut(B, Bits(N));
  for (BlockId Blk = 0; Blk < B; ++Blk) {
    LiveIn[Blk].unite(UpUse[Blk]);
    LiveOut[Blk].unite(PhiOut[Blk]);
  }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (BlockId Blk = B; Blk-- > 0;) {
      for (BlockId S : F.block(Blk).Succs)
        Changed |= LiveOut[Blk].unite(LiveIn[S]);
      Changed |= LiveIn[Blk].uniteMinus(LiveOut[Blk], Kill[Blk]);
    }
  }
  return LiveOut;
}

} // namespace

std::string perfbench::checkAssignment(const Function &F, const Assignment &A,
                                       const std::vector<unsigned> &Budgets,
                                       bool Fits) {
  const size_t N = F.numValues();
  if (A.RegisterOf.size() != N)
    return "assignment covers " + std::to_string(A.RegisterOf.size()) +
           " values, function has " + std::to_string(N);
  auto regOf = [&](ValueId V) { return A.RegisterOf[V]; };
  for (ValueId V = 0; V < N; ++V) {
    RegClassId C = F.valueClass(V);
    if (C >= Budgets.size())
      return valueText(F, V) + " is in class " + std::to_string(C) +
             " which has no budget";
    if (!A.ClassOf.empty() && A.ClassOf.size() == N && A.ClassOf[V] != C)
      return valueText(F, V) + " assigned in the wrong class";
    if (regOf(V) != Assignment::kNoRegister && regOf(V) >= Budgets[C])
      return valueText(F, V) + " holds register " + std::to_string(regOf(V)) +
             " beyond its class budget " + std::to_string(Budgets[C]);
  }
  if (Fits) {
    for (const BasicBlock &BB : F.blocks())
      for (const Instruction &I : BB.Instrs) {
        for (ValueId D : I.Defs)
          if (regOf(D) == Assignment::kNoRegister)
            return valueText(F, D) + " has no register though the function "
                                     "fits";
        for (ValueId U : I.Uses)
          if (U != kNoValue && regOf(U) == Assignment::kNoRegister)
            return valueText(F, U) + " has no register though the function "
                                     "fits";
      }
  }

  std::vector<Bits> LiveOut = computeLiveOut(F);
  // Occupant[C][R]: the live value holding register R of class C.
  std::vector<std::vector<ValueId>> Occupant(Budgets.size());
  std::string Error;
  auto conflict = [&](ValueId V, ValueId Other, BlockId Blk) {
    if (Error.empty())
      Error = valueText(F, V) + " and " + valueText(F, Other) +
              " share register " + std::to_string(regOf(V)) + " of class " +
              std::to_string(F.valueClass(V)) + " in block " +
              F.block(Blk).Name;
  };
  // Claims V's register at the current point; a different live holder is
  // a conflict.
  auto claim = [&](ValueId V, BlockId Blk) {
    if (regOf(V) == Assignment::kNoRegister)
      return;
    ValueId &Slot = Occupant[F.valueClass(V)][regOf(V)];
    if (Slot != kNoValue && Slot != V)
      conflict(V, Slot, Blk);
    Slot = V;
  };
  auto release = [&](ValueId V) {
    if (regOf(V) == Assignment::kNoRegister)
      return;
    ValueId &Slot = Occupant[F.valueClass(V)][regOf(V)];
    if (Slot == V)
      Slot = kNoValue;
  };

  for (BlockId Blk = 0; Blk < F.numBlocks() && Error.empty(); ++Blk) {
    for (size_t C = 0; C < Budgets.size(); ++C)
      Occupant[C].assign(Budgets[C], kNoValue);
    Bits Live = LiveOut[Blk];
    Live.forEach([&](size_t V) { claim(ValueId(V), Blk); });
    const BasicBlock &BB = F.block(Blk);
    size_t NumPhis = 0;
    while (NumPhis < BB.Instrs.size() && BB.Instrs[NumPhis].isPhi())
      ++NumPhis;
    for (size_t I = BB.Instrs.size(); I-- > NumPhis;) {
      const Instruction &Instr = BB.Instrs[I];
      // A def is written while every value live after the instruction
      // still holds its register; values dying here may share with it.
      for (size_t K = 0; K < Instr.Defs.size(); ++K) {
        ValueId D = Instr.Defs[K];
        if (regOf(D) == Assignment::kNoRegister)
          continue;
        ValueId Holder = Occupant[F.valueClass(D)][regOf(D)];
        if (Holder != kNoValue && Holder != D)
          conflict(D, Holder, Blk);
        for (size_t J = 0; J < K; ++J)
          if (F.valueClass(Instr.Defs[J]) == F.valueClass(D) &&
              regOf(Instr.Defs[J]) == regOf(D))
            conflict(D, Instr.Defs[J], Blk);
      }
      for (ValueId D : Instr.Defs)
        if (Live.test(D)) {
          Live.reset(D);
          release(D);
        }
      for (ValueId U : Instr.Uses)
        if (U != kNoValue && !Live.test(U)) {
          Live.set(U);
          claim(U, Blk);
        }
    }
    // Phi defs are written together at the top of the block, alongside
    // every value live there; a dead one still occupies its register then.
    for (size_t P = 0; P < NumPhis; ++P)
      for (ValueId D : BB.Instrs[P].Defs)
        if (!Live.test(D)) {
          Live.set(D);
          claim(D, Blk);
        }
  }
  return Error;
}

ResultDigest ResultDigest::of(const PipelineResult &R) {
  ResultDigest D;
  D.SpillCost = R.TotalSpillCost;
  D.CopyCost = R.RemainingCopyCost;
  D.Loads = R.Spills.NumLoads;
  D.Stores = R.Spills.NumStores;
  D.Slots = R.Spills.NumSlots;
  D.Folded = R.LoadsFolded;
  D.Rounds = R.Rounds;
  D.MaxLive = R.FinalMaxLive;
  D.RegistersUsed = R.Regs.RegistersUsed;
  D.Fits = R.Fits;
  D.Success = R.Regs.Success;
  D.RegisterOf = R.Regs.RegisterOf;
  D.ClassOf = R.Regs.ClassOf;
  D.RewrittenValues = R.Rewritten.numValues();
  D.RewrittenHash = hashFunction(R.Rewritten);
  return D;
}

static std::string field(const char *Name, long long Got, long long Want) {
  return std::string(Name) + " " + std::to_string(Got) + " != " +
         std::to_string(Want);
}

std::string perfbench::diffResults(const ResultDigest &Got,
                                   const ResultDigest &Want) {
  if (Got.SpillCost != Want.SpillCost)
    return field("spill cost", Got.SpillCost, Want.SpillCost);
  if (Got.Loads != Want.Loads)
    return field("loads", Got.Loads, Want.Loads);
  if (Got.Stores != Want.Stores)
    return field("stores", Got.Stores, Want.Stores);
  if (Got.Slots != Want.Slots)
    return field("slots", Got.Slots, Want.Slots);
  if (Got.Folded != Want.Folded)
    return field("loads folded", Got.Folded, Want.Folded);
  if (Got.CopyCost != Want.CopyCost)
    return field("copy cost", Got.CopyCost, Want.CopyCost);
  if (Got.Rounds != Want.Rounds)
    return field("rounds", Got.Rounds, Want.Rounds);
  if (Got.MaxLive != Want.MaxLive)
    return field("max live", Got.MaxLive, Want.MaxLive);
  if (Got.Fits != Want.Fits)
    return field("fits", Got.Fits, Want.Fits);
  if (Got.Success != Want.Success || Got.RegistersUsed != Want.RegistersUsed ||
      Got.RegisterOf != Want.RegisterOf || Got.ClassOf != Want.ClassOf)
    return "register assignments differ";
  if (Got.RewrittenValues != Want.RewrittenValues ||
      Got.RewrittenHash != Want.RewrittenHash)
    return "rewritten functions differ";
  return {};
}

std::string perfbench::diffOutcome(const TaskOutcome &Got,
                                   const ResultDigest &Want) {
  if (Got.SpillCost != Want.SpillCost)
    return field("spill cost", Got.SpillCost, Want.SpillCost);
  if (Got.NumLoads != Want.Loads)
    return field("loads", Got.NumLoads, Want.Loads);
  if (Got.NumStores != Want.Stores)
    return field("stores", Got.NumStores, Want.Stores);
  if (Got.LoadsFolded != Want.Folded)
    return field("loads folded", Got.LoadsFolded, Want.Folded);
  if (Got.Rounds != Want.Rounds)
    return field("rounds", Got.Rounds, Want.Rounds);
  if (Got.FinalMaxLive != Want.MaxLive)
    return field("max live", Got.FinalMaxLive, Want.MaxLive);
  if (Got.Fits != Want.Fits)
    return field("fits", Got.Fits, Want.Fits);
  return {};
}

std::string perfbench::stripTraceEcho(const std::string &Response) {
  // JsonValue::dump(2) puts the trace member last, two spaces in.
  static const std::string Marker = ",\n  \"trace\": {";
  size_t At = Response.rfind(Marker);
  if (At == std::string::npos)
    return Response;
  return Response.substr(0, At) + "\n}\n";
}

std::string perfbench::checkResponse(const std::string &Response,
                                     const std::string &Expected) {
  std::string Body = stripTraceEcho(Response);
  if (Body == Expected)
    return {};
  size_t At = 0;
  while (At < Body.size() && At < Expected.size() && Body[At] == Expected[At])
    ++At;
  return "response differs from the direct driver run at byte " +
         std::to_string(At) + " (" + std::to_string(Body.size()) + " vs " +
         std::to_string(Expected.size()) + " bytes)";
}
