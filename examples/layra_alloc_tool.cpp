//===- examples/layra_alloc_tool.cpp - Command-line allocator driver ------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small `llc`-style driver around the library: read a function in the
/// textual IR syntax (ir/Parser.h) or generate a random one, run any of the
/// paper's allocators at a chosen register count, and report the spill
/// decision -- optionally materialising the spill code.
///
/// Usage:
///   layra_alloc_tool [--input FILE | --seed N] [--allocator NAME]
///                    [--regs R] [--class-regs NAME:N[,NAME:N...]]
///                    [--target NAME] [--list-targets]
///                    [--compare] [--emit] [--connect SPEC]
///
///   --input FILE   parse FILE (Function::toString() syntax; must be SSA)
///   --seed N       generate a random function instead (default seed 1)
///   --allocator    one of gc, nl, bl, fpl, bfpl, lh, ls, bls, optimal
///                  (default bfpl)
///   --regs R       register count for class 0 (default 4)
///   --class-regs   per-class budget overrides by name, e.g. vfp:8
///   --target       cost model / addressing modes / class table
///                  (default st231); --list-targets prints the registry
///   --compare      additionally run every allocator and print a table
///   --emit         print the function with spill code inserted
///   --connect SPEC submit the function to a running layra-serve instead
///                  of allocating in-process; SPEC is unix:PATH or
///                  tcp:HOST:PORT.  Prints the server's report payload.
///
/// Examples:
///   ./build/examples/layra_alloc_tool --seed 7 --regs 4 --compare
///   ./build/examples/layra_alloc_tool --input f.lir --allocator optimal
///   ./build/layra_alloc_tool --input f.lir --connect unix:/tmp/layra.sock
///
//===----------------------------------------------------------------------===//

#include "layra/Layra.h"

#include "ir/Parser.h"
#include "service/Client.h"
#include "support/ParseUtil.h"
#include "support/Table.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace layra;

namespace {

struct ToolOptions {
  std::string InputFile;
  uint64_t Seed = 1;
  std::string AllocatorName = "bfpl";
  unsigned Regs = 4;
  std::vector<ClassRegOverride> ClassRegs;
  std::string TargetName = "st231";
  bool Compare = false;
  bool Emit = false;
  std::string ConnectSpec;
};

void printUsageAndExit(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--input FILE | --seed N] [--allocator NAME] "
               "[--regs R] [--class-regs NAME:N[,NAME:N...]] "
               "[--target NAME] [--list-targets] [--compare] "
               "[--emit] [--connect unix:PATH|tcp:HOST:PORT]\n",
               Argv0);
  std::exit(2);
}

bool parseArgs(int Argc, char **Argv, ToolOptions &Opt) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        printUsageAndExit(Argv[0]);
      return Argv[++I];
    };
    if (Arg == "--input")
      Opt.InputFile = Next();
    else if (Arg == "--seed")
      Opt.Seed = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--allocator")
      Opt.AllocatorName = Next();
    else if (Arg == "--regs")
      Opt.Regs = static_cast<unsigned>(std::strtoul(Next(), nullptr, 10));
    else if (Arg == "--class-regs") {
      std::string Error;
      if (!parseClassRegList(Next(), 1024, Opt.ClassRegs, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        std::exit(2);
      }
    } else if (Arg == "--target")
      Opt.TargetName = Next();
    else if (Arg == "--list-targets") {
      std::fputs(formatTargetList().c_str(), stdout);
      std::exit(0);
    }
    else if (Arg == "--compare")
      Opt.Compare = true;
    else if (Arg == "--emit")
      Opt.Emit = true;
    else if (Arg == "--connect")
      Opt.ConnectSpec = Next();
    else
      printUsageAndExit(Argv[0]);
  }
  // Client mode ships the function to a server, which runs exactly one
  // allocator and returns a report; the local-only modes would be
  // silently dropped, so reject the combination outright.
  if (!Opt.ConnectSpec.empty() && (Opt.Compare || Opt.Emit)) {
    std::fprintf(stderr,
                 "error: --connect cannot be combined with --compare or "
                 "--emit (they run locally)\n");
    std::exit(2);
  }
  return true;
}

Function loadOrGenerate(const ToolOptions &Opt) {
  if (!Opt.InputFile.empty()) {
    std::ifstream In(Opt.InputFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   Opt.InputFile.c_str());
      std::exit(1);
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    ParsedFunction P = parseFunction(Buffer.str());
    if (!P.Ok) {
      std::fprintf(stderr, "error: %s:%u: %s\n", Opt.InputFile.c_str(),
                   P.Line, P.Error.c_str());
      std::exit(1);
    }
    std::string VerifyError;
    if (!verifyFunction(P.F, /*ExpectSsa=*/true, &VerifyError)) {
      std::fprintf(stderr, "error: %s: not strict SSA: %s\n",
                   Opt.InputFile.c_str(), VerifyError.c_str());
      std::exit(1);
    }
    return P.F;
  }
  Rng R(Opt.Seed);
  ProgramGenOptions Gen;
  Gen.NumVars = 18;
  Gen.MaxBlocks = 24;
  Function Raw = generateFunction(R, Gen);
  DominatorTree Dom(Raw);
  LoopInfo Loops(Raw, Dom);
  Loops.annotate(Raw);
  return convertToSsa(Raw).Ssa;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Opt;
  parseArgs(Argc, Argv, Opt);
  const TargetDesc *Target = targetByName(Opt.TargetName);
  if (!Target) {
    std::fprintf(stderr, "error: unknown target '%s'\n",
                 Opt.TargetName.c_str());
    return 1;
  }

  Function F = loadOrGenerate(Opt);

  if (!Opt.ConnectSpec.empty()) {
    // Client mode: ship the function (in its textual form) to a running
    // layra-serve and print the report the server sends back.  Both
    // hand-written --input files and generated --seed functions take this
    // path; toString() output is exactly what ir/Parser.h accepts.
    std::string Error;
    Client Conn = Client::connectToSpec(Opt.ConnectSpec, &Error);
    if (!Conn.valid()) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    ServiceRequest Req;
    Req.K = ServiceRequest::Kind::SubmitIr;
    Req.IrText = F.toString();
    Req.Regs = {Opt.Regs};
    Req.ClassRegs = Opt.ClassRegs;
    Req.TargetName = Opt.TargetName;
    Req.Options.AllocatorName = Opt.AllocatorName;
    Req.Details = true;
    std::string Response;
    if (!Conn.call(Client::makeSubmitIrRequest(Req), Response, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fputs(Response.c_str(), stdout);
    // Propagate a server-side rejection as a failing exit code.
    return Client::isErrorResponse(Response) ? 1 : 0;
  }

  if (std::string E = checkFunctionClasses(F, *Target); !E.empty()) {
    std::fprintf(stderr, "error: %s\n", E.c_str());
    return 1;
  }
  std::string BudgetError;
  std::vector<unsigned> Budgets =
      resolveClassBudgets(*Target, Opt.Regs, Opt.ClassRegs, &BudgetError);
  if (Budgets.empty()) {
    std::fprintf(stderr, "error: %s\n", BudgetError.c_str());
    return 1;
  }
  AllocationProblem P = buildSsaProblem(F, *Target, Budgets);
  // Display the budgets actually used, not the raw --regs value: a
  // --class-regs override of class 0 wins over --regs.
  std::string BudgetText = std::to_string(Budgets[0]);
  for (unsigned C = 1; C < P.numClasses(); ++C)
    BudgetText += "," + std::string(Target->regClass(C).Name) + ":" +
                  std::to_string(Budgets[C]);
  std::printf("function %s: %u blocks, %u values, MaxLive %u, R=%s (%s)\n",
              F.name().c_str(), F.numBlocks(), F.numValues(), P.maxLive(),
              BudgetText.c_str(), Target->Name);

  if (Opt.Compare) {
    Table T({"allocator", "allocated", "spilled", "spill cost", "optimal?"});
    for (const std::string &Name : allAllocatorNames()) {
      std::unique_ptr<Allocator> A = makeAllocator(Name);
      AllocationResult Result = A->allocateProblem(P);
      T.addRow({Name, Table::num((long long)Result.allocated().size()),
                Table::num((long long)Result.spilled().size()),
                Table::num((long long)Result.SpillCost),
                Result.Proven ? "proven" : ""});
    }
    T.print(stdout);
    return 0;
  }

  std::unique_ptr<Allocator> A = makeAllocator(Opt.AllocatorName);
  if (!A) {
    std::fprintf(stderr, "error: unknown allocator '%s'\n",
                 Opt.AllocatorName.c_str());
    return 1;
  }
  AllocationResult Result = A->allocateProblem(P);
  std::printf("%s: spill cost %lld, %zu spilled of %u values%s\n",
              A->name(), static_cast<long long>(Result.SpillCost),
              Result.spilled().size(), P.graph().numVertices(),
              Result.Proven ? " (proven optimal)" : "");
  for (VertexId V : Result.spilled())
    std::printf("  spill %s (cost %lld)\n",
                F.valueName(V).empty() ? ("%" + std::to_string(V)).c_str()
                                       : F.valueName(V).c_str(),
                static_cast<long long>(P.graph().weight(V)));

  if (Opt.Emit) {
    std::vector<char> Spilled(F.numValues(), 0);
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      Spilled[V] = Result.Allocated[V] ? 0 : 1;
    rewriteSpills(F, Spilled);
    foldMemoryOperands(F, *Target);
    std::printf("\n%s", F.toString().c_str());
  }
  return 0;
}
