//===- driver/ReportIO.h - Driver report serializers ------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON and CSV serialization of DriverReport (support/Json.h carries the
/// generic emitter; support/Table.h the CSV renderer).  The JSON schema is
/// versioned ("layra-driver-report/v1") and stable: the golden fixtures,
/// the service's responses and downstream tooling key on it.  Changes
/// within v1 are strictly additive (cache_evictions joined the top level
/// when the caches became bounded); removing or renaming a field requires
/// a version bump.  Timing fields (wall_ms and the per-job percentile
/// block) are the only non-deterministic content and can be omitted
/// wholesale with IncludeTiming = false, which makes the output of two runs
/// over the same jobs byte-identical regardless of thread count.
///
/// The allocation service (service/Server.h) reuses these serializers
/// verbatim: an `allocate` response payload is exactly the bytes
/// writeDriverReportJson() would produce for the same jobs.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_DRIVER_REPORTIO_H
#define LAYRA_DRIVER_REPORTIO_H

#include "driver/BatchDriver.h"
#include "support/Json.h"

#include <cstdio>

namespace layra {

/// Builds the JSON document for \p Report.
/// \param IncludeTiming  emit wall_ms / percentile fields.
/// \param IncludeTasks   emit the per-function task array of every job.
JsonValue driverReportToJson(const DriverReport &Report,
                             bool IncludeTiming = true,
                             bool IncludeTasks = false);

/// Serializes \p Report as JSON to \p Out (trailing newline included).
void writeDriverReportJson(std::FILE *Out, const DriverReport &Report,
                           bool IncludeTiming = true,
                           bool IncludeTasks = false);

/// One CSV row per job: suite, regs, allocator, totals, cache and timing.
void writeDriverReportCsv(std::FILE *Out, const DriverReport &Report,
                          bool IncludeTiming = true);

/// One CSV row per task (function) across all jobs.
void writeDriverTasksCsv(std::FILE *Out, const DriverReport &Report,
                         bool IncludeTiming = true);

} // namespace layra

#endif // LAYRA_DRIVER_REPORTIO_H
