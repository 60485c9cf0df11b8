//===- ir/Target.h - Target machine descriptors ------------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal target descriptions.  The paper evaluates on the STMicro ST231
/// (4-issue VLIW) and the ARM Cortex-A8 (ARMv7); hardware enters the
/// experiment through (a) the register budgets swept in the harness, (b)
/// the relative cost of spill loads/stores in the cost model, and (c) the
/// partition of values into *register classes*.  Real machines do not have
/// one uniform register file: ARMv7 splits general-purpose registers from
/// the VFP/NEON file, the ST231 keeps branch conditions in dedicated branch
/// registers.  A TargetDesc therefore carries a small table of named
/// classes, each with its own architectural register count; values carry a
/// class id (ir/Program.h) and only values of the same class ever compete
/// for the same registers.  Every pre-existing target is a one-class table,
/// which keeps the whole single-file pipeline bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_IR_TARGET_H
#define LAYRA_IR_TARGET_H

#include "graph/Graph.h"       // for Weight
#include "support/ParseUtil.h" // for ClassRegOverride

#include <string>
#include <vector>

namespace layra {

/// Identifier of a register class: an index into TargetDesc::Classes.
/// Class 0 is the default class every value belongs to unless annotated.
using RegClassId = unsigned;

/// Upper bound on classes per target.  Small on purpose: real ISAs have a
/// handful of files (GPR, FP/SIMD, predicates/branch), and a fixed bound
/// keeps TargetDesc a constexpr literal type.
inline constexpr unsigned kMaxRegClasses = 4;

/// One register class: a named file with an architectural register count.
struct RegClass {
  const char *Name = nullptr;
  unsigned NumRegisters = 0;
};

/// Cost/geometry parameters of a target machine.
struct TargetDesc {
  const char *Name;
  /// Cost charged per spill *load* executed once (relative units).
  Weight LoadCost;
  /// Cost charged per spill *store* executed once.
  Weight StoreCost;
  /// Memory operands a single instruction may read directly (paper §4.3:
  /// "at most one such operand on x86"); 0 on RISC targets.
  unsigned MaxMemOperands = 0;
  /// Cost charged per folded memory operand executed once; meaningful only
  /// when MaxMemOperands > 0 and normally below LoadCost (the access rides
  /// on the consuming instruction instead of occupying an issue slot).
  Weight MemOperandCost = 0;
  /// Register-class table.  Classes[0] is the default class; NumClasses is
  /// at least 1 for every target defined here.
  RegClass Classes[kMaxRegClasses] = {};
  unsigned NumClasses = 1;

  unsigned numClasses() const { return NumClasses; }

  /// Class descriptor of \p C.
  RegClass regClass(RegClassId C) const { return Classes[C]; }

  /// Index of the class named \p Name; -1 when the target has no such
  /// class.
  int classIdByName(const std::string &Name) const {
    for (unsigned C = 0; C < NumClasses; ++C)
      if (Name == regClass(C).Name)
        return static_cast<int>(C);
    return -1;
  }
};

/// STMicroelectronics ST231 VLIW: 64 GPRs; loads have a 3-cycle exposed
/// latency while stores are fire-and-forget, so reloads dominate spill cost.
inline constexpr TargetDesc ST231{"st231",
                                  /*LoadCost=*/3,
                                  /*StoreCost=*/1,
                                  /*MaxMemOperands=*/0,
                                  /*MemOperandCost=*/0,
                                  {{"gpr", 64}},
                                  1};

/// ST231 with its branch-register file modelled: 64 GPRs plus 8 one-bit
/// branch registers holding compare results.  Branch values never compete
/// with data values for a register.
inline constexpr TargetDesc ST231_BR{"st231-br",
                                     /*LoadCost=*/3,
                                     /*StoreCost=*/1,
                                     /*MaxMemOperands=*/0,
                                     /*MemOperandCost=*/0,
                                     {{"gpr", 64}, {"br", 8}},
                                     2};

/// ARM Cortex-A8 (ARMv7): 16 GPRs; L1 hits cost about one extra cycle on
/// the dual-issue pipeline for both directions.
inline constexpr TargetDesc ARMv7{"armv7-a8",
                                  /*LoadCost=*/2,
                                  /*StoreCost=*/2,
                                  /*MaxMemOperands=*/0,
                                  /*MemOperandCost=*/0,
                                  {{"gpr", 16}},
                                  1};

/// ARMv7 with the VFP register file modelled: 16 GPRs plus 32
/// single-precision VFP registers.  Floating-point temporaries live in
/// their own file and spill independently of the integer pressure.
inline constexpr TargetDesc ARMv7_VFP{"armv7-vfp",
                                      /*LoadCost=*/2,
                                      /*StoreCost=*/2,
                                      /*MaxMemOperands=*/0,
                                      /*MemOperandCost=*/0,
                                      {{"gpr", 16}, {"vfp", 32}},
                                      2};

/// An x86-64-like CISC: 16 GPRs and complex addressing modes that let one
/// operand per instruction come straight from memory (paper §4.3), at a
/// cost below a standalone reload.
inline constexpr TargetDesc X86_64{"x86-64",
                                   /*LoadCost=*/3,
                                   /*StoreCost=*/2,
                                   /*MaxMemOperands=*/1,
                                   /*MemOperandCost=*/1,
                                   {{"gpr", 16}},
                                   1};

/// Every target known to the front ends, in presentation order.  The single
/// registry behind targetByName() and the `--list-targets` output of
/// layra-bench, layra-serve and layra_alloc_tool, so the three CLIs and the
/// wire protocol cannot drift apart on which targets exist.
inline const std::vector<const TargetDesc *> &knownTargets() {
  static const std::vector<const TargetDesc *> Targets{
      &ST231, &ST231_BR, &ARMv7, &ARMv7_VFP, &X86_64};
  return Targets;
}

/// Name -> target lookup shared by every user-facing front end (the CLIs
/// and the allocation service), including the accepted alias spellings;
/// nullptr for unknown names.
inline const TargetDesc *targetByName(const std::string &Name) {
  for (const TargetDesc *T : knownTargets())
    if (Name == T->Name)
      return T;
  if (Name == "armv7")
    return &ARMv7;
  if (Name == "x86")
    return &X86_64;
  return nullptr;
}

/// Renders the shared `--list-targets` table: one line per target with its
/// class table and cost model.  All three CLIs print exactly this string.
inline std::string formatTargetList() {
  std::string Out;
  for (const TargetDesc *T : knownTargets()) {
    std::string Line = T->Name;
    Line.append(Line.size() < 12 ? 12 - Line.size() : 1, ' ');
    Line += "classes:";
    for (unsigned C = 0; C < T->numClasses(); ++C) {
      RegClass RC = T->regClass(C);
      Line += " ";
      Line += RC.Name;
      Line += ":" + std::to_string(RC.NumRegisters);
    }
    Line += "  load=" + std::to_string(T->LoadCost) +
            " store=" + std::to_string(T->StoreCost);
    if (T->MaxMemOperands > 0)
      Line += " mem-operands=" + std::to_string(T->MaxMemOperands) +
              " mem-cost=" + std::to_string(T->MemOperandCost);
    Out += Line + "\n";
  }
  return Out;
}

/// Resolves the per-class register budgets of one job: class 0 gets
/// \p Class0Regs (the swept `--regs` value), every other class its
/// architectural count, and \p Overrides replace individual classes by
/// name (class 0 included).  Returns an empty vector and sets \p Error
/// when an override names a class the target does not have.
inline std::vector<unsigned>
resolveClassBudgets(const TargetDesc &Target, unsigned Class0Regs,
                    const std::vector<ClassRegOverride> &Overrides,
                    std::string *Error = nullptr) {
  std::vector<unsigned> Budgets(Target.numClasses());
  Budgets[0] = Class0Regs;
  for (unsigned C = 1; C < Target.numClasses(); ++C)
    Budgets[C] = Target.regClass(C).NumRegisters;
  for (const ClassRegOverride &O : Overrides) {
    int C = Target.classIdByName(O.Class);
    if (C < 0) {
      if (Error)
        *Error = "target '" + std::string(Target.Name) +
                 "' has no register class '" + O.Class + "'";
      return {};
    }
    Budgets[static_cast<unsigned>(C)] = O.Regs;
  }
  return Budgets;
}

} // namespace layra

#endif // LAYRA_IR_TARGET_H
