//===- tests/driver/ReportIOGoldenTest.cpp - Serializer golden files ------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-file tests for the DriverReport serializers: the timing-free
/// JSON/CSV output of a fixed deterministic batch is compared byte-for-byte
/// against fixtures committed under tests/driver/golden/.  Any schema or
/// formatting drift then shows up as a reviewable fixture diff instead of
/// silently breaking report consumers.  Two more fixtures pin the eembc
/// register sweep under the default BFPL (on one and on four threads) and
/// under NL, BL and FPL, so a change in any allocation result of the
/// layered family, or a dependence on the thread count, fails here too.
///
/// Regenerating after an *intentional* schema change:
///   LAYRA_UPDATE_GOLDEN=1 ./build/driver_ReportIOGoldenTest
/// then commit the rewritten fixtures.
///
//===----------------------------------------------------------------------===//

#include "driver/ReportIO.h"

#include "driver/BatchDriver.h"
#include "ir/Dominators.h"
#include "ir/LoopInfo.h"
#include "ir/ProgramGen.h"
#include "obs/Trace.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace layra;

namespace {

/// The fixed batch behind every fixture: two deterministic generated
/// programs at two register counts.  Changing this function invalidates
/// the fixtures by design -- regenerate and review the diff.
DriverReport goldenReport() {
  Suite S;
  S.Name = "golden";
  SuiteProgram Prog;
  Prog.Name = "prog";
  Rng R(20240717);
  for (unsigned I = 0; I < 3; ++I) {
    ProgramGenOptions Opt;
    Opt.NumVars = 10;
    Opt.MaxBlocks = 12;
    Function F = generateFunction(R, Opt, "f" + std::to_string(I));
    DominatorTree Dom(F);
    LoopInfo Loops(F, Dom);
    Loops.annotate(F);
    Prog.Functions.push_back(std::move(F));
  }
  S.Programs.push_back(std::move(Prog));

  std::vector<BatchJob> Jobs;
  for (unsigned Regs : {3u, 5u}) {
    BatchJob Job;
    Job.SuiteName = S.Name;
    Job.SuiteData = &S;
    Job.NumRegisters = Regs;
    Jobs.push_back(Job);
  }
  BatchDriver Driver(1);
  return Driver.run(Jobs);
}

std::string goldenDir() {
  return std::string(LAYRA_SOURCE_DIR) + "/tests/driver/golden";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Captures what \p Write emits into a FILE* as a string.
template <typename WriterT> std::string capture(WriterT Write) {
  std::FILE *Tmp = std::tmpfile();
  EXPECT_NE(Tmp, nullptr) << "tmpfile() unavailable in this environment";
  if (!Tmp)
    return {}; // Comparison below then fails cleanly, without a null deref.
  Write(Tmp);
  long Size = std::ftell(Tmp);
  std::rewind(Tmp);
  std::string Out(static_cast<size_t>(Size), '\0');
  size_t ReadCount = std::fread(Out.data(), 1, Out.size(), Tmp);
  EXPECT_EQ(ReadCount, Out.size());
  std::fclose(Tmp);
  return Out;
}

void compareToGolden(const std::string &Actual, const std::string &File) {
  std::string Path = goldenDir() + "/" + File;
  if (std::getenv("LAYRA_UPDATE_GOLDEN")) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot rewrite fixture " << Path;
    Out << Actual;
    return;
  }
  std::string Expected = readFile(Path);
  ASSERT_FALSE(Expected.empty())
      << "missing fixture " << Path
      << " (run with LAYRA_UPDATE_GOLDEN=1 to create it)";
  EXPECT_EQ(Expected, Actual)
      << "serializer drift vs. " << Path
      << "; if intentional, regenerate with LAYRA_UPDATE_GOLDEN=1 and "
         "review the fixture diff";
}

} // namespace

TEST(ReportIOGolden, JsonWithoutTimingMatchesFixture) {
  DriverReport Report = goldenReport();
  compareToGolden(capture([&](std::FILE *Out) {
                    writeDriverReportJson(Out, Report, /*IncludeTiming=*/false,
                                          /*IncludeTasks=*/true);
                  }),
                  "report.json");
}

TEST(ReportIOGolden, CsvWithoutTimingMatchesFixture) {
  DriverReport Report = goldenReport();
  compareToGolden(capture([&](std::FILE *Out) {
                    writeDriverReportCsv(Out, Report,
                                         /*IncludeTiming=*/false);
                  }),
                  "report.csv");
}

TEST(ReportIOGolden, TasksCsvWithoutTimingMatchesFixture) {
  DriverReport Report = goldenReport();
  compareToGolden(capture([&](std::FILE *Out) {
                    writeDriverTasksCsv(Out, Report,
                                        /*IncludeTiming=*/false);
                  }),
                  "tasks.csv");
}

TEST(ReportIOGolden, ObservabilityOnStillMatchesTimingFreeFixtures) {
  // Full observability surface enabled: the timing-free serializations
  // must keep their committed bytes.  Phase breakdowns only ever ride in
  // under IncludeTiming, so the goldens are insensitive to obs state.
  TraceCollector &TC = TraceCollector::global();
  TC.clear();
  TC.enable(/*Deterministic=*/true);
  obs::setPhaseAccounting(true);
  DriverReport Report = goldenReport();
  obs::setPhaseAccounting(false);
  TC.disable();
  TC.clear();

  compareToGolden(capture([&](std::FILE *Out) {
                    writeDriverReportJson(Out, Report, /*IncludeTiming=*/false,
                                          /*IncludeTasks=*/true);
                  }),
                  "report.json");
  compareToGolden(capture([&](std::FILE *Out) {
                    writeDriverReportCsv(Out, Report,
                                         /*IncludeTiming=*/false);
                  }),
                  "report.csv");
}

TEST(ReportIOGolden, TimedReportCarriesPhaseBreakdowns) {
  // Not a golden (timings are nondeterministic): with phase accounting on,
  // a timed JSON report grows a phase_ms object per job and the timed CSV
  // grows the per-phase columns.
  obs::setPhaseAccounting(true);
  DriverReport Report = goldenReport();
  obs::setPhaseAccounting(false);

  ASSERT_FALSE(Report.Jobs.empty());
  // The phases account for the solve wall time: SSA construction runs
  // under its own span, and the self times of all phases cover nearly all
  // of each job's summed task time.
  double PhaseMs = 0, WallMs = 0;
  uint64_t SsaSpans = 0;
  for (const JobReport &JR : Report.Jobs) {
    ASSERT_TRUE(JR.Phases.has_value());
    for (unsigned P = 0; P < kNumPhases; ++P)
      PhaseMs += JR.Phases->Ms[P];
    SsaSpans += JR.Phases->Count[unsigned(Phase::Ssa)];
    WallMs += JR.WallMsTotal;
  }
  EXPECT_GT(SsaSpans, 0u);
  EXPECT_GE(PhaseMs, 0.95 * WallMs) << "phases " << PhaseMs << " ms of "
                                    << WallMs << " ms solve time";
  EXPECT_LE(PhaseMs, WallMs * 1.001 + 0.01);
  std::string Json = capture([&](std::FILE *Out) {
    writeDriverReportJson(Out, Report, /*IncludeTiming=*/true,
                          /*IncludeTasks=*/false);
  });
  EXPECT_NE(Json.find("\"phase_ms\""), std::string::npos);
  EXPECT_NE(Json.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(Json.find("\"ssa\""), std::string::npos);
  std::string Csv = capture([&](std::FILE *Out) {
    writeDriverReportCsv(Out, Report, /*IncludeTiming=*/true);
  });
  EXPECT_NE(Csv.find("phase_ms_pipeline"), std::string::npos);
  EXPECT_NE(Csv.find("phase_ms_ssa"), std::string::npos);
}

TEST(ReportIOGolden, EembcSweepWithoutTimingMatchesFixture) {
  // The eembc register sweep -- st231 at 4..16 registers, default options
  // -- is `layra-bench --suite=eembc --regs=4..16 --threads=1 --no-timing
  // --json` byte for byte.  On four threads it must give the same bytes
  // once the "threads" member is set aside.
  std::vector<BatchJob> Jobs;
  for (unsigned Regs = 4; Regs <= 16; ++Regs) {
    BatchJob Job;
    Job.SuiteName = "eembc";
    Job.NumRegisters = Regs;
    Jobs.push_back(Job);
  }
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    BatchDriver Driver(Threads);
    DriverReport Report = Driver.run(Jobs);
    std::string Json = capture([&](std::FILE *Out) {
      writeDriverReportJson(Out, Report, /*IncludeTiming=*/false,
                            /*IncludeTasks=*/false);
    });
    const std::string Member = "\"threads\": " + std::to_string(Threads);
    size_t At = Json.find(Member);
    ASSERT_NE(At, std::string::npos) << "no " << Member << " member";
    compareToGolden(Json.replace(At, Member.size(), "\"threads\": 1"),
                    "eembc_sweep.json");
  }
}

TEST(ReportIOGolden, EembcSweepOfTheOtherLayeredVariantsMatchesFixture) {
  // The same sweep under NL, BL and FPL (BFPL is eembc_sweep.json), in one
  // run: each job is `layra-bench --suite=eembc --regs=4..16 --threads=1
  // --no-timing --allocator=NAME --json`'s job for that register count.
  std::vector<BatchJob> Jobs;
  for (const char *Name : {"nl", "bl", "fpl"})
    for (unsigned Regs = 4; Regs <= 16; ++Regs) {
      BatchJob Job;
      Job.SuiteName = "eembc";
      Job.NumRegisters = Regs;
      Job.Options.AllocatorName = Name;
      Jobs.push_back(Job);
    }
  BatchDriver Driver(1);
  DriverReport Report = Driver.run(Jobs);
  compareToGolden(capture([&](std::FILE *Out) {
                    writeDriverReportJson(Out, Report, /*IncludeTiming=*/false,
                                          /*IncludeTasks=*/false);
                  }),
                  "eembc_layered_variants.json");
}
