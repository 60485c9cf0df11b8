//===- driver/ReportIO.cpp - Driver report serializers ---------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "driver/ReportIO.h"

#include "support/Table.h"

using namespace layra;

/// Rounds a timing to the microsecond so serialized reports do not carry
/// meaningless sub-ns digits.
static double roundMs(double Ms) {
  return static_cast<double>(static_cast<long long>(Ms * 1000.0 + 0.5)) /
         1000.0;
}

static JsonValue jobToJson(const JobReport &JR, bool IncludeTiming,
                           bool IncludeTasks) {
  const BatchJob &Job = JR.Job;
  JsonValue Out = JsonValue::object();
  Out.set("suite", Job.SuiteName);
  Out.set("target", Job.Target.Name);
  Out.set("regs", Job.NumRegisters);
  // Per-class budgets appear only for multi-class targets, so every
  // single-class report -- the whole historical schema -- stays
  // byte-identical.
  if (Job.Budgets.size() > 1) {
    JsonValue Classes = JsonValue::object();
    for (unsigned C = 0; C < Job.Budgets.size(); ++C)
      Classes.set(Job.Target.regClass(C).Name, Job.Budgets[C]);
    Out.set("class_regs", std::move(Classes));
  }
  Out.set("allocator", Job.Options.AllocatorName);
  Out.set("affinity_bias", Job.Options.AffinityBias);
  Out.set("fold_mem_operands", Job.Options.FoldMemoryOperands);
  Out.set("max_rounds", Job.Options.MaxRounds);
  Out.set("functions", static_cast<unsigned long long>(JR.Tasks.size()));
  Out.set("functions_fit", JR.FunctionsFit);
  Out.set("cache_hits", JR.CacheHits);
  Out.set("total_spill_cost", static_cast<long long>(JR.TotalSpillCost));
  Out.set("loads", static_cast<unsigned long long>(JR.TotalLoads));
  Out.set("stores", static_cast<unsigned long long>(JR.TotalStores));
  Out.set("loads_folded", static_cast<unsigned long long>(JR.TotalFolded));
  Out.set("rounds", static_cast<unsigned long long>(JR.TotalRounds));
  if (IncludeTiming) {
    JsonValue Wall = JsonValue::object();
    Wall.set("total", roundMs(JR.WallMsTotal));
    Wall.set("p50", roundMs(JR.WallMsP50));
    Wall.set("p95", roundMs(JR.WallMsP95));
    Wall.set("max", roundMs(JR.WallMsMax));
    Out.set("wall_ms", std::move(Wall));
    // Per-phase self-time breakdown, present only when phase accounting
    // was on during the run.  Gated on IncludeTiming like every timing
    // field, so --no-timing reports and goldens keep their bytes.
    if (JR.Phases) {
      JsonValue Phases = JsonValue::object();
      for (unsigned P = 0; P < kNumPhases; ++P) {
        if (JR.Phases->Count[P] == 0)
          continue;
        JsonValue One = JsonValue::object();
        One.set("ms", roundMs(JR.Phases->Ms[P]));
        One.set("count",
                static_cast<unsigned long long>(JR.Phases->Count[P]));
        Phases.set(phaseName(Phase(P)), std::move(One));
      }
      Out.set("phase_ms", std::move(Phases));
    }
  }
  if (IncludeTasks) {
    JsonValue Tasks = JsonValue::array();
    for (const TaskResult &T : JR.Tasks) {
      char KeyHex[19];
      std::snprintf(KeyHex, sizeof(KeyHex), "%016llx",
                    static_cast<unsigned long long>(T.Key));
      JsonValue Task = JsonValue::object();
      Task.set("program", T.Program);
      Task.set("function", T.Function);
      Task.set("key", KeyHex);
      Task.set("cache_hit", T.CacheHit);
      Task.set("spill_cost", static_cast<long long>(T.Out.SpillCost));
      Task.set("loads", T.Out.NumLoads);
      Task.set("stores", T.Out.NumStores);
      Task.set("loads_folded", T.Out.LoadsFolded);
      Task.set("rounds", T.Out.Rounds);
      Task.set("max_live", T.Out.FinalMaxLive);
      Task.set("fits", T.Out.Fits);
      if (IncludeTiming)
        Task.set("wall_ms", roundMs(T.WallMs));
      Tasks.push(std::move(Task));
    }
    Out.set("tasks", std::move(Tasks));
  }
  return Out;
}

JsonValue layra::driverReportToJson(const DriverReport &Report,
                                    bool IncludeTiming, bool IncludeTasks) {
  JsonValue Out = JsonValue::object();
  Out.set("schema", "layra-driver-report/v1");
  Out.set("threads", Report.Threads);
  Out.set("cache_entries", static_cast<unsigned long long>(Report.CacheEntries));
  Out.set("cache_hits", static_cast<unsigned long long>(Report.CacheHits));
  Out.set("cache_evictions",
          static_cast<unsigned long long>(Report.CacheEvictions));
  if (IncludeTiming)
    Out.set("wall_ms", roundMs(Report.WallMs));
  JsonValue Jobs = JsonValue::array();
  for (const JobReport &JR : Report.Jobs)
    Jobs.push(jobToJson(JR, IncludeTiming, IncludeTasks));
  Out.set("jobs", std::move(Jobs));
  return Out;
}

void layra::writeDriverReportJson(std::FILE *Out, const DriverReport &Report,
                                  bool IncludeTiming, bool IncludeTasks) {
  driverReportToJson(Report, IncludeTiming, IncludeTasks).write(Out);
}

/// `NAME:N;NAME:N` rendering of a multi-class job's budgets (CSV cell).
static std::string formatClassBudgets(const BatchJob &Job) {
  std::string Out;
  for (unsigned C = 0; C < Job.Budgets.size(); ++C) {
    if (C)
      Out += ";";
    Out += Job.Target.regClass(C).Name;
    Out += ":" + std::to_string(Job.Budgets[C]);
  }
  return Out;
}

void layra::writeDriverReportCsv(std::FILE *Out, const DriverReport &Report,
                                 bool IncludeTiming) {
  // Column names track the JSON schema ("functions_fit" etc.) so one field
  // has one name across serializers.  The class_regs column appears only
  // when some job targets a multi-class machine -- exactly like the JSON
  // field -- so historical single-class CSVs keep their bytes.
  bool AnyMultiClass = false;
  for (const JobReport &JR : Report.Jobs)
    AnyMultiClass |= JR.Job.Budgets.size() > 1;
  std::vector<std::string> Headers{
      "suite",      "target",        "regs",  "allocator",
      "affinity_bias", "fold_mem_operands", "max_rounds",
      "functions",  "functions_fit", "cache_hits", "spill_cost",
      "loads",      "stores",        "loads_folded", "rounds"};
  if (AnyMultiClass)
    Headers.insert(Headers.begin() + 3, "class_regs");
  // Phase columns appear only when some job carries a breakdown (phase
  // accounting on) *and* timing is included, mirroring the JSON field.
  bool AnyPhases = false;
  for (const JobReport &JR : Report.Jobs)
    AnyPhases |= JR.Phases.has_value();
  AnyPhases &= IncludeTiming;
  if (IncludeTiming) {
    Headers.push_back("wall_ms_total");
    Headers.push_back("wall_ms_p50");
    Headers.push_back("wall_ms_p95");
    Headers.push_back("wall_ms_max");
  }
  if (AnyPhases)
    for (unsigned P = 0; P < kNumPhases; ++P)
      Headers.push_back(std::string("phase_ms_") + phaseName(Phase(P)));
  Table T(std::move(Headers));
  for (const JobReport &JR : Report.Jobs) {
    const BatchJob &Job = JR.Job;
    std::vector<std::string> Row{
        Job.SuiteName,
        Job.Target.Name,
        std::to_string(Job.NumRegisters),
        Job.Options.AllocatorName,
        Job.Options.AffinityBias ? "1" : "0",
        Job.Options.FoldMemoryOperands ? "1" : "0",
        std::to_string(Job.Options.MaxRounds),
        std::to_string(JR.Tasks.size()),
        std::to_string(JR.FunctionsFit),
        std::to_string(JR.CacheHits),
        std::to_string(JR.TotalSpillCost),
        std::to_string(JR.TotalLoads),
        std::to_string(JR.TotalStores),
        std::to_string(JR.TotalFolded),
        std::to_string(JR.TotalRounds)};
    if (AnyMultiClass)
      Row.insert(Row.begin() + 3, formatClassBudgets(Job));
    if (IncludeTiming) {
      Row.push_back(Table::num(JR.WallMsTotal));
      Row.push_back(Table::num(JR.WallMsP50));
      Row.push_back(Table::num(JR.WallMsP95));
      Row.push_back(Table::num(JR.WallMsMax));
    }
    if (AnyPhases)
      for (unsigned P = 0; P < kNumPhases; ++P)
        Row.push_back(JR.Phases ? Table::num(JR.Phases->Ms[P]) : "0");
    T.addRow(std::move(Row));
  }
  T.printCsv(Out);
}

void layra::writeDriverTasksCsv(std::FILE *Out, const DriverReport &Report,
                                bool IncludeTiming) {
  std::vector<std::string> Headers{
      "suite",  "regs",  "allocator",    "program", "function",
      "cache_hit", "spill_cost", "loads", "stores",  "loads_folded",
      "rounds", "max_live", "fits"};
  if (IncludeTiming)
    Headers.push_back("wall_ms");
  Table T(std::move(Headers));
  for (const JobReport &JR : Report.Jobs)
    for (const TaskResult &Task : JR.Tasks) {
      const BatchJob &Job = JR.Job;
      std::vector<std::string> Row{
          Job.SuiteName,
          std::to_string(Job.NumRegisters),
          Job.Options.AllocatorName,
          Task.Program,
          Task.Function,
          Task.CacheHit ? "1" : "0",
          std::to_string(Task.Out.SpillCost),
          std::to_string(Task.Out.NumLoads),
          std::to_string(Task.Out.NumStores),
          std::to_string(Task.Out.LoadsFolded),
          std::to_string(Task.Out.Rounds),
          std::to_string(Task.Out.FinalMaxLive),
          Task.Out.Fits ? "1" : "0"};
      if (IncludeTiming)
        Row.push_back(Table::num(Task.WallMs));
      T.addRow(std::move(Row));
    }
  T.printCsv(Out);
}
