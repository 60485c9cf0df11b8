//===- tests/fuzz/OracleTest.cpp - Oracle registry tests ------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-oracle registry (fuzz/Oracles.h): every oracle
/// passes on known-good generated and corpus-style cases (single- and
/// multi-class), the planted --break-oracle failure triggers exactly on
/// functions containing a copy, and the serve-direct oracle holds
/// against a real in-process server.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "core/SolverWorkspace.h"
#include "fuzz/FuzzCase.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "service/Client.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unistd.h>

using namespace layra;

namespace {

FuzzCase makeCase(uint64_t Seed, const std::string &TargetName,
                  unsigned NumClasses, std::vector<unsigned> Budgets) {
  Rng R(Seed);
  ProgramGenOptions Opt;
  Opt.NumVars = 9;
  Opt.MaxBlocks = 14;
  Opt.MaxNesting = 2;
  Opt.ExprsPerBlockMin = 1;
  Opt.ExprsPerBlockMax = 4;
  Opt.NumClasses = NumClasses;
  Opt.AltClassProb = 0.4;
  FuzzCase Case;
  Case.F = generateFunction(R, Opt, "oc" + std::to_string(Seed));
  Case.TargetName = TargetName;
  Case.Budgets = std::move(Budgets);
  EXPECT_TRUE(validateCase(Case));
  EXPECT_TRUE(normalizeCase(Case));
  return Case;
}

/// Runs \p OracleName over \p Case with a shared workspace.
OracleOutcome runOn(const FuzzCase &Case, const std::string &OracleName,
                    SolverWorkspace *WS = nullptr,
                    const std::string &BreakOracle = {},
                    Client *ServeClient = nullptr) {
  SsaConversion Ssa = convertToSsa(Case.F);
  OracleContext Ctx;
  Ctx.Case = &Case;
  Ctx.Target = Case.target();
  Ctx.Ssa = &Ssa.Ssa;
  Ctx.WS = WS;
  Ctx.ServeClient = ServeClient;
  Ctx.ServeThreads = 2;
  Ctx.BreakOracle = BreakOracle;
  const Oracle *O = findOracle(OracleName);
  EXPECT_NE(O, nullptr) << OracleName;
  return runOracle(*O, Ctx);
}

} // namespace

TEST(OracleTest, RegistryNamesAreStableAndLookupsWork) {
  const std::vector<Oracle> &Registry = oracleRegistry();
  ASSERT_EQ(Registry.size(), 10u);
  for (const Oracle &O : Registry) {
    EXPECT_EQ(findOracle(O.Name), &O);
    EXPECT_NE(O.Description[0], '\0');
  }
  EXPECT_EQ(findOracle("no-such-oracle"), nullptr);
  // The serve-backed oracle is marked as such (the CLI keys on it).
  ASSERT_NE(findOracle("serve-direct"), nullptr);
  EXPECT_TRUE(findOracle("serve-direct")->NeedsServer);
  EXPECT_FALSE(findOracle("heuristic-vs-exact")->NeedsServer);
  // The baseline sweep runs locally too.
  ASSERT_NE(findOracle("baseline-backends"), nullptr);
  EXPECT_FALSE(findOracle("baseline-backends")->NeedsServer);
  ASSERT_NE(findOracle("build-vs-reference"), nullptr);
  EXPECT_FALSE(findOracle("build-vs-reference")->NeedsServer);
  ASSERT_NE(findOracle("budget-sweep"), nullptr);
  EXPECT_FALSE(findOracle("budget-sweep")->NeedsServer);
}

TEST(OracleTest, AllLocalOraclesPassOnKnownGoodCases) {
  SolverWorkspace WS;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    FuzzCase Single = makeCase(Seed, "st231", 1, {3});
    FuzzCase Multi = makeCase(Seed + 50, "armv7-vfp", 2, {3, 2});
    for (const FuzzCase *Case : {&Single, &Multi}) {
      for (const Oracle &O : oracleRegistry()) {
        if (O.NeedsServer)
          continue;
        OracleOutcome Outcome = runOn(*Case, O.Name, &WS);
        EXPECT_TRUE(Outcome.Ok)
            << O.Name << " seed=" << Seed << ": " << Outcome.Detail;
      }
    }
  }
}

TEST(OracleTest, PlantedBreakFiresExactlyOnCopies) {
  // A case guaranteed to contain a copy.
  FuzzCase WithCopy;
  WithCopy.TargetName = "st231";
  WithCopy.Budgets = {4};
  {
    BlockId Entry = WithCopy.F.makeBlock("entry");
    ValueId A = WithCopy.F.makeValue("a");
    ValueId B = WithCopy.F.makeValue("b");
    Instruction Def;
    Def.Op = Opcode::Op;
    Def.Defs = {A};
    Instruction Copy;
    Copy.Op = Opcode::Copy;
    Copy.Defs = {B};
    Copy.Uses = {A};
    Instruction Ret;
    Ret.Op = Opcode::Return;
    Ret.Uses = {B};
    auto &Instrs = WithCopy.F.block(Entry).Instrs;
    Instrs.push_back(Def);
    Instrs.push_back(Copy);
    Instrs.push_back(Ret);
  }
  ASSERT_TRUE(validateCase(WithCopy));

  // Breaking one oracle fails that oracle -- and only that one.
  OracleOutcome Broken =
      runOn(WithCopy, "parse-roundtrip", nullptr, "parse-roundtrip");
  EXPECT_FALSE(Broken.Ok);
  EXPECT_NE(Broken.Detail.find("planted"), std::string::npos);
  EXPECT_TRUE(runOn(WithCopy, "parse-roundtrip").Ok);
  EXPECT_TRUE(
      runOn(WithCopy, "assignment-valid", nullptr, "parse-roundtrip").Ok);

  // Copy-free functions never trigger the planted failure.
  FuzzCase NoCopy = makeCase(3, "st231", 1, {4});
  bool HasCopy = false;
  for (const BasicBlock &BB : NoCopy.F.blocks())
    for (const Instruction &I : BB.Instrs)
      HasCopy |= I.Op == Opcode::Copy;
  if (!HasCopy) {
    EXPECT_TRUE(
        runOn(NoCopy, "parse-roundtrip", nullptr, "parse-roundtrip").Ok);
  }
}

TEST(OracleTest, ServeDirectHoldsAgainstARealServer) {
  // In-process server on a temp Unix socket, exactly the harness
  // layra-fuzz --serve-oracle builds.
  char Template[] = "/tmp/layra-oracle-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);
  ServerOptions Opt;
  Opt.UnixPath = std::string(Dir) + "/serve.sock";
  Opt.Threads = 2;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  SolverWorkspace WS;
  for (uint64_t Seed = 11; Seed <= 14; ++Seed) {
    FuzzCase Case = makeCase(Seed, "armv7-vfp", 2, {4, 2});
    OracleOutcome Outcome =
        runOn(Case, "serve-direct", &WS, {}, &Conn);
    EXPECT_TRUE(Outcome.Ok) << "seed=" << Seed << ": " << Outcome.Detail;
  }

  // Without a client the oracle passes vacuously (it is opt-in).
  FuzzCase Case = makeCase(15, "st231", 1, {4});
  EXPECT_TRUE(runOn(Case, "serve-direct").Ok);

  Conn.close();
  S.requestStop();
  S.wait();
  ::rmdir(Dir);
}
