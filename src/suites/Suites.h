//===- suites/Suites.h - Synthetic benchmark suites -------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic synthetic stand-ins for the paper's proprietary benchmark
/// inputs (DESIGN.md §4 documents the substitution):
///  - spec2000int : SPEC CPU 2000int (12 programs, larger functions);
///  - eembc       : EEMBC (20 small loop-heavy kernels);
///  - lao-kernels : STMicro LAO kernels (12 tiny, deeply nested kernels);
///  - specjvm98   : SPEC JVM98 (9 apps x many methods; evaluated non-SSA).
/// Every suite is a pure function of its name: programs are generated from
/// seeds derived by hashing, so all experiments reproduce bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SUITES_SUITES_H
#define LAYRA_SUITES_SUITES_H

#include "core/AllocationProblem.h"
#include "ir/Program.h"
#include "ir/Target.h"

#include <string>
#include <vector>

namespace layra {

/// One benchmark program: a named bag of functions.
struct SuiteProgram {
  std::string Name;
  std::vector<Function> Functions;
};

/// A named collection of programs.
struct Suite {
  std::string Name;
  std::vector<SuiteProgram> Programs;

  unsigned numFunctions() const;
};

/// The four synthetic suites (see file comment).
Suite makeSpec2000Int();
Suite makeEembc();
Suite makeLaoKernels();
Suite makeSpecJvm98();
/// Mixed register classes: loop kernels whose variable pools split between
/// the default class and a second (VFP-like) class, for multi-class
/// targets (armv7-vfp, st231-br).  Values of different classes never
/// pressure each other's budgets.
Suite makeMixedClasses();

/// Suite lookup by name ("spec2000int", "eembc", "lao-kernels",
/// "specjvm98", "mixed-classes"); aborts on unknown names.
Suite makeSuite(const std::string &Name);

/// All names makeSuite accepts (in a stable presentation order).  Lets
/// front ends validate user input before makeSuite's fatal-error path.
std::vector<std::string> allSuiteNames();

/// An allocation problem labelled with its origin.
struct NamedProblem {
  std::string Program;
  std::string Function;
  AllocationProblem P;
};

/// Converts every function of \p S to SSA and builds chordal instances
/// (paper §6.1 methodology) with one register budget per target class
/// (buildSsaProblem).
std::vector<NamedProblem> chordalProblems(const Suite &S,
                                          const TargetDesc &Target,
                                          const std::vector<unsigned> &Budgets);

/// Builds general (non-SSA) instances of every function (paper §6.2).
std::vector<NamedProblem> generalProblems(const Suite &S,
                                          const TargetDesc &Target,
                                          const std::vector<unsigned> &Budgets);

} // namespace layra

#endif // LAYRA_SUITES_SUITES_H
