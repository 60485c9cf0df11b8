//===- service/Protocol.h - Allocation-service wire protocol ----*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed wire protocol of the long-running allocation server
/// (docs/PROTOCOL.md is the normative specification, versioned
/// "layra-serve/v1").  Every message -- request or response -- is one
/// frame:
///
///   +------+------+------+------+------+------+------+------+----------+
///   | 'L'  | 'Y'  | 'R'  | 'A'  |  payload length (uint32, BE)  | JSON |
///   +------+------+------+------+------+------+------+------+----------+
///
/// The payload is UTF-8 JSON.  Requests carry a "type" field (ping, stats,
/// allocate, submit_ir); responses identify themselves by "schema"
/// ("layra-serve-pong/v1", "layra-serve-stats/v5", "layra-serve-error/v1",
/// or -- for allocation responses -- a verbatim "layra-driver-report/v1"
/// document, byte-identical to what driver/ReportIO.h would write for a
/// direct BatchDriver run of the same jobs).
///
/// This header carries the pieces both sides share: frame encode/decode
/// over fds and buffers, the parsed request representation, and the small
/// response builders.  Syntax lives here; semantic validation (does the
/// suite exist, is the allocator known) lives in the server, which is where
/// the answers are.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SERVICE_PROTOCOL_H
#define LAYRA_SERVICE_PROTOCOL_H

#include "alloc/Pipeline.h"
#include "support/Json.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace layra {

/// Protocol identity, advertised in stats responses and PROTOCOL.md.
inline constexpr const char *kServeProtocolVersion = "layra-serve/v1";

/// Response schema names.  Allocation responses instead carry the driver
/// report schema ("layra-driver-report/v1", see driver/ReportIO.h).
inline constexpr const char *kErrorSchema = "layra-serve-error/v1";
/// Current stats schema.  History: v2 added the p99 latency percentile,
/// the service-time histogram and dispatcher utilization over v1; v3
/// added requests.rejected, the per-shard `shards` array and the
/// `disk_cache` object; v4 added disk_cache.touch_failures and `delta`
/// warm-start counters (top level and per shard).  v5 is v4 without the
/// `delta` objects, so every v3 field keeps its name and meaning
/// (docs/PROTOCOL.md).
inline constexpr const char *kStatsSchema = "layra-serve-stats/v5";
inline constexpr const char *kPongSchema = "layra-serve-pong/v1";

/// Frame geometry.
inline constexpr char kFrameMagic[4] = {'L', 'Y', 'R', 'A'};
inline constexpr size_t kFrameHeaderBytes = 8;
/// Default cap on one frame's payload.  Submitted IR and detailed reports
/// fit comfortably; a length field of garbage does not get to allocate
/// gigabytes.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

/// Outcome of reading one frame from a stream.
enum class FrameStatus {
  Ok,        ///< Payload delivered.
  Eof,       ///< Clean close before any header byte.
  Truncated, ///< Stream ended inside a header or payload.
  BadMagic,  ///< Header did not start with "LYRA".
  Oversized, ///< Declared length exceeds the configured bound.
  IoError,   ///< read() failed.
};

/// Human-readable name of \p Status (for error messages and logs).
const char *frameStatusName(FrameStatus Status);

/// Serializes the 8-byte header for a payload of \p PayloadBytes.
std::string encodeFrameHeader(size_t PayloadBytes);

/// Encodes header + \p Payload into one buffer (convenience for tests).
std::string encodeFrame(const std::string &Payload);

/// Decodes a frame header from \p Header (kFrameHeaderBytes bytes).
/// Returns Ok and sets \p PayloadBytes, or BadMagic/Oversized.
FrameStatus decodeFrameHeader(const unsigned char *Header,
                              size_t MaxPayloadBytes, size_t &PayloadBytes);

/// Writes one frame to \p Fd.  False on any write failure.
bool writeFrame(int Fd, const std::string &Payload);

/// Reads one frame from \p Fd into \p Payload.
FrameStatus readFrame(int Fd, std::string &Payload,
                      size_t MaxPayloadBytes = kDefaultMaxFrameBytes);

/// A parsed, syntactically valid request.
struct ServiceRequest {
  enum class Kind { Ping, Stats, Allocate, SubmitIr };
  Kind K = Kind::Ping;

  /// Allocate: suites to run (each crossed with every register count).
  std::vector<std::string> Suites;
  /// Allocate / SubmitIr: register counts; required, each in [1, 1024].
  /// These sweep register class 0; other classes default to the target's
  /// architectural counts.
  std::vector<unsigned> Regs;
  /// Optional "class_regs" object: per-class budget overrides by class
  /// name, e.g. {"vfp": 8}.  Validated against the target's class table
  /// by the server (semantic check).
  std::vector<ClassRegOverride> ClassRegs;
  /// Target cost model name (targetByName in ir/Target.h); default st231.
  std::string TargetName = "st231";
  /// Pipeline configuration (allocator, rounds, folding, affinity).
  PipelineOptions Options;
  /// Include wall-clock fields in the report.  Default off: deterministic
  /// responses are what make the shared cache and the loopback determinism
  /// tests possible, so timing is opt-in.
  bool Timing = false;
  /// Include the per-function task array in the report.
  bool Details = false;

  /// Optional "trace" field (any request kind): `true` or an id string
  /// asks the server to trace the request and echo the trace (with its
  /// id) in the response.  Off by default so response bytes stay
  /// untouched for clients that never opt in — the field is additive
  /// within layra-serve/v1.
  bool Trace = false;
  /// Client-supplied trace id (1..64 chars of [A-Za-z0-9._:-]); empty
  /// means the server generates one.
  std::string TraceId;

  /// SubmitIr: the textual-IR function (ir/Parser.h syntax, strict SSA).
  std::string IrText;
  /// SubmitIr: suite label in the report; default "submitted".
  std::string Name;
  /// SubmitIr: optional "base" field -- a base key (16 lowercase hex
  /// digits, formatBaseKey) naming an earlier submission this IR edits.
  /// Validated at parse time and otherwise ignored: the response is the
  /// same bytes with or without it.  Empty = absent.
  std::string Base;
};

/// Parses \p Payload into \p Out.  On failure returns false and fills
/// \p Error with a message suitable for an error response.  Limits are
/// syntactic sanity bounds (at most 16 suites, 64 register counts); the
/// server applies its own semantic checks on top.  The string_view
/// overload is the event loop's path: frames are parsed in place out of
/// the per-connection read buffer without an intermediate copy.
bool parseServiceRequest(std::string_view Payload, ServiceRequest &Out,
                         std::string &Error);

/// The base key of a submitted function: a SplitMix64-style fold of the
/// IR text bytes (exact algorithm in docs/PROTOCOL.md, so clients can
/// compute it without a round trip).  Never returns 0, which
/// parseBaseKey rejects.  A client names an earlier submission in the
/// "base" field of a submit_ir with this key.
uint64_t submitIrBaseKey(const std::string &IrText);

/// Renders \p Key as the wire form: exactly 16 lowercase hex digits.
std::string formatBaseKey(uint64_t Key);

/// Parses the wire form back; false unless \p Text is exactly 16
/// lowercase hex digits encoding a nonzero key.
bool parseBaseKey(const std::string &Text, uint64_t &Key);

/// Content hash a request for shard routing.  Mixes every field that
/// influences the response bytes (suites, register counts, class
/// overrides, target, pipeline options, submitted IR, report knobs) with
/// the same SplitMix64 mixer the solver caches use, so requests for the
/// same work deterministically land on the same shard -- and therefore
/// the same per-shard cache -- across connections and restarts.  Trace
/// fields and the ignored submit_ir "base" hint are deliberately
/// excluded: neither changes the response bytes.
uint64_t routeRequestHash(const ServiceRequest &Req);

/// Builds the payload of an error response.  A non-empty \p TraceId adds
/// a {"trace": {"id": ...}} echo for clients that asked to be traced.
std::string makeErrorResponse(const std::string &Message,
                              const std::string &TraceId = std::string());

/// Builds the payload of a pong response, with the same optional trace
/// echo as makeErrorResponse.
std::string makePongResponse(const std::string &TraceId = std::string());

} // namespace layra

#endif // LAYRA_SERVICE_PROTOCOL_H
