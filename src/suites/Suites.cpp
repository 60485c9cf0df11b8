//===- suites/Suites.cpp - Synthetic benchmark suites ----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "suites/Suites.h"

#include "core/ProblemBuilder.h"
#include "ir/Dominators.h"
#include "ir/Liveness.h"
#include "ir/LoopInfo.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "support/Compiler.h"
#include "support/Random.h"

using namespace layra;

/// Register-pressure ceiling for generated functions.  Mirrors the moderate
/// pressure of the paper's compiler-emitted functions and keeps the exact
/// ILP baseline provable everywhere (the clique-tree DP state space grows
/// with MaxLive; see alloc/OptimalBnB.cpp).
static constexpr unsigned kMaxLiveCap = 24;

unsigned Suite::numFunctions() const {
  unsigned Total = 0;
  for (const SuiteProgram &P : Programs)
    Total += static_cast<unsigned>(P.Functions.size());
  return Total;
}

/// Deterministic 64-bit seed from a string (FNV-1a folded through
/// SplitMix64 for avalanche).
static uint64_t seedOf(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return splitMix64(H);
}

/// Generates a program's functions and annotates loop frequencies.
static SuiteProgram makeProgram(const std::string &SuiteName,
                                const std::string &ProgramName,
                                unsigned NumFunctions,
                                const ProgramGenOptions &Shape) {
  SuiteProgram Out;
  Out.Name = ProgramName;
  Rng R(seedOf(SuiteName + "/" + ProgramName));
  for (unsigned FI = 0; FI < NumFunctions; ++FI) {
    // Jitter the shape a little per function so a program is not N copies
    // of the same silhouette, and regenerate the rare function whose
    // register pressure exceeds the cap (keeping the least-pressured
    // attempt as a fallback).
    Function Best("placeholder");
    unsigned BestMaxLive = ~0u;
    for (unsigned Attempt = 0; Attempt < 6; ++Attempt) {
      ProgramGenOptions Opt = Shape;
      Opt.NumVars +=
          static_cast<unsigned>(R.nextBelow(Shape.NumVars / 2 + 1));
      Opt.MaxBlocks +=
          static_cast<unsigned>(R.nextBelow(Shape.MaxBlocks / 2 + 1));
      Function F = generateFunction(
          R, Opt, ProgramName + "_f" + std::to_string(FI));
      unsigned MaxLive = Liveness(F).maxLive(F);
      if (MaxLive < BestMaxLive) {
        BestMaxLive = MaxLive;
        Best = std::move(F);
      }
      if (BestMaxLive <= kMaxLiveCap)
        break;
    }
    DominatorTree Dom(Best);
    LoopInfo Loops(Best, Dom);
    Loops.annotate(Best);
    Out.Functions.push_back(std::move(Best));
  }
  return Out;
}

Suite layra::makeSpec2000Int() {
  // Few programs, bigger control flow, moderate loop nesting: the shape of
  // general-purpose integer codes.
  static const char *Names[] = {"gzip",    "vpr",  "gcc",  "mcf",
                                "crafty",  "parser", "eon",  "perlbmk",
                                "gap",     "vortex", "bzip2", "twolf"};
  ProgramGenOptions Shape;
  Shape.NumVars = 26;
  Shape.NumParams = 5;
  Shape.MaxBlocks = 48;
  Shape.MaxNesting = 3;
  Shape.ExprsPerBlockMin = 2;
  Shape.ExprsPerBlockMax = 6;
  Shape.LoopProb = 0.28;
  Shape.IfProb = 0.40;

  Suite S;
  S.Name = "spec2000int";
  for (const char *Name : Names)
    S.Programs.push_back(makeProgram(S.Name, Name, /*NumFunctions=*/8, Shape));
  return S;
}

Suite layra::makeEembc() {
  // Many small kernels dominated by loops.
  static const char *Names[] = {
      "a2time", "aifftr", "aifirf", "aiifft", "basefp", "bitmnp", "cacheb",
      "canrdr", "idctrn", "iirflt", "matrix", "pntrch", "puwmod", "rspeed",
      "tblook", "ttsprk", "cjpeg",  "djpeg",  "rgbcmy", "rotate"};
  ProgramGenOptions Shape;
  Shape.NumVars = 16;
  Shape.NumParams = 4;
  Shape.MaxBlocks = 24;
  Shape.MaxNesting = 3;
  Shape.ExprsPerBlockMin = 2;
  Shape.ExprsPerBlockMax = 5;
  Shape.LoopProb = 0.45;
  Shape.IfProb = 0.25;

  Suite S;
  S.Name = "eembc";
  for (const char *Name : Names)
    S.Programs.push_back(makeProgram(S.Name, Name, /*NumFunctions=*/3, Shape));
  return S;
}

Suite layra::makeLaoKernels() {
  // Tiny, deeply nested signal-processing kernels (the paper notes this
  // suite is "made of small benchmarks" and thus sensitive to a single bad
  // allocation choice).
  static const char *Names[] = {"fir",     "iir",    "fft",   "dct",
                                "viterbi", "huffman", "sad",  "quantize",
                                "autcor",  "conven",  "fbital", "latanal"};
  ProgramGenOptions Shape;
  Shape.NumVars = 12;
  Shape.NumParams = 3;
  Shape.MaxBlocks = 16;
  Shape.MaxNesting = 4;
  Shape.ExprsPerBlockMin = 2;
  Shape.ExprsPerBlockMax = 5;
  Shape.LoopProb = 0.55;
  Shape.IfProb = 0.15;

  Suite S;
  S.Name = "lao-kernels";
  for (const char *Name : Names)
    S.Programs.push_back(makeProgram(S.Name, Name, /*NumFunctions=*/2, Shape));
  return S;
}

Suite layra::makeSpecJvm98() {
  // JIT-compiled methods: evaluated on the raw non-SSA form (JikesRVM's IR
  // is not SSA), which yields general, mostly non-chordal graphs.
  static const char *Names[] = {"check",     "compress", "jess",
                                "raytrace",  "db",       "javac",
                                "mpegaudio", "mtrt",     "jack"};
  ProgramGenOptions Shape;
  Shape.NumVars = 18; // Moderate pool: reuse creates multi-def live ranges
                      // whose merges make a third of the graphs non-chordal.
  Shape.NumParams = 4;
  Shape.MaxBlocks = 28;
  Shape.MaxNesting = 3;
  Shape.ExprsPerBlockMin = 2;
  Shape.ExprsPerBlockMax = 6;
  Shape.LoopProb = 0.30;
  Shape.IfProb = 0.38;
  Shape.CopyProb = 0.15; // JIT IRs are move-rich.

  // A JIT method population is dominated by tiny methods -- accessors,
  // wrappers, straight-line glue -- with only a small hot tail carrying
  // real register pressure.  Method-counting statistics (§2.3's inclusion
  // rate) depend on that skew, while cost-sum figures (Figs. 14-15) barely
  // notice it: near-pressureless methods contribute ~0 spill cost to every
  // allocator.
  ProgramGenOptions SmallShape;
  SmallShape.NumVars = 6;
  SmallShape.NumParams = 2;
  SmallShape.MaxBlocks = 6;
  SmallShape.MaxNesting = 1;
  SmallShape.ExprsPerBlockMin = 1;
  SmallShape.ExprsPerBlockMax = 3;
  SmallShape.LoopProb = 0.15;
  SmallShape.IfProb = 0.30;
  SmallShape.CopyProb = 0.15;

  Suite S;
  S.Name = "specjvm98";
  for (const char *Name : Names) {
    SuiteProgram Prog = makeProgram(S.Name, Name, /*NumFunctions=*/10, Shape);
    SuiteProgram Small = makeProgram(S.Name, std::string(Name) + "#small",
                                     /*NumFunctions=*/90, SmallShape);
    for (Function &F : Small.Functions)
      Prog.Functions.push_back(std::move(F));
    S.Programs.push_back(std::move(Prog));
  }
  return S;
}

Suite layra::makeMixedClasses() {
  // Loop kernels over a two-class variable pool: class 0 ("gpr"-like)
  // and class 1 (the second file of armv7-vfp / st231-br).  Pressure
  // builds independently per file; sweeping --regs squeezes class 0 while
  // class 1 keeps its architectural budget unless --class-regs says
  // otherwise.
  static const char *Names[] = {"mix_fir",  "mix_fft",  "mix_mac",
                                "mix_conv", "mix_blend", "mix_dot",
                                "mix_norm", "mix_warp"};
  ProgramGenOptions Shape;
  Shape.NumVars = 18;
  Shape.NumParams = 4;
  Shape.MaxBlocks = 24;
  Shape.MaxNesting = 3;
  Shape.ExprsPerBlockMin = 2;
  Shape.ExprsPerBlockMax = 5;
  Shape.LoopProb = 0.40;
  Shape.IfProb = 0.28;
  Shape.CopyProb = 0.12;
  Shape.NumClasses = 2;
  Shape.AltClassProb = 0.40;

  Suite S;
  S.Name = "mixed-classes";
  for (const char *Name : Names)
    S.Programs.push_back(makeProgram(S.Name, Name, /*NumFunctions=*/3, Shape));
  return S;
}

namespace {
/// The single name -> factory table both makeSuite and allSuiteNames
/// derive from, so the two can never drift apart.
struct SuiteEntry {
  const char *Name;
  Suite (*Factory)();
};
constexpr SuiteEntry kSuiteTable[] = {
    {"spec2000int", makeSpec2000Int},
    {"eembc", makeEembc},
    {"lao-kernels", makeLaoKernels},
    {"specjvm98", makeSpecJvm98},
    {"mixed-classes", makeMixedClasses},
};
} // namespace

std::vector<std::string> layra::allSuiteNames() {
  std::vector<std::string> Names;
  for (const SuiteEntry &Entry : kSuiteTable)
    Names.push_back(Entry.Name);
  return Names;
}

Suite layra::makeSuite(const std::string &Name) {
  for (const SuiteEntry &Entry : kSuiteTable)
    if (Name == Entry.Name)
      return Entry.Factory();
  layraFatalError("unknown suite name");
}

std::vector<NamedProblem>
layra::chordalProblems(const Suite &S, const TargetDesc &Target,
                       const std::vector<unsigned> &Budgets) {
  std::vector<NamedProblem> Out;
  for (const SuiteProgram &Prog : S.Programs)
    for (const Function &F : Prog.Functions) {
      SsaConversion Ssa = convertToSsa(F);
      Out.push_back({Prog.Name, F.name(),
                     buildSsaProblem(Ssa.Ssa, Target, Budgets)});
    }
  return Out;
}

std::vector<NamedProblem>
layra::generalProblems(const Suite &S, const TargetDesc &Target,
                       const std::vector<unsigned> &Budgets) {
  std::vector<NamedProblem> Out;
  for (const SuiteProgram &Prog : S.Programs)
    for (const Function &F : Prog.Functions)
      Out.push_back(
          {Prog.Name, F.name(), buildGeneralProblem(F, Target, Budgets)});
  return Out;
}
