//===- service/Protocol.cpp - Allocation-service wire protocol -------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "obs/RequestTrace.h"
#include "support/Socket.h"

#include <cstdio>
#include <cstring>

using namespace layra;

const char *layra::frameStatusName(FrameStatus Status) {
  switch (Status) {
  case FrameStatus::Ok:
    return "ok";
  case FrameStatus::Eof:
    return "eof";
  case FrameStatus::Truncated:
    return "truncated frame";
  case FrameStatus::BadMagic:
    return "bad frame magic";
  case FrameStatus::Oversized:
    return "oversized frame";
  case FrameStatus::IoError:
    return "i/o error";
  }
  return "unknown";
}

std::string layra::encodeFrameHeader(size_t PayloadBytes) {
  std::string Header(kFrameHeaderBytes, '\0');
  std::memcpy(&Header[0], kFrameMagic, sizeof(kFrameMagic));
  uint32_t Length = static_cast<uint32_t>(PayloadBytes);
  Header[4] = static_cast<char>((Length >> 24) & 0xFF);
  Header[5] = static_cast<char>((Length >> 16) & 0xFF);
  Header[6] = static_cast<char>((Length >> 8) & 0xFF);
  Header[7] = static_cast<char>(Length & 0xFF);
  return Header;
}

std::string layra::encodeFrame(const std::string &Payload) {
  return encodeFrameHeader(Payload.size()) + Payload;
}

FrameStatus layra::decodeFrameHeader(const unsigned char *Header,
                                     size_t MaxPayloadBytes,
                                     size_t &PayloadBytes) {
  if (std::memcmp(Header, kFrameMagic, sizeof(kFrameMagic)) != 0)
    return FrameStatus::BadMagic;
  uint32_t Length = (static_cast<uint32_t>(Header[4]) << 24) |
                    (static_cast<uint32_t>(Header[5]) << 16) |
                    (static_cast<uint32_t>(Header[6]) << 8) |
                    static_cast<uint32_t>(Header[7]);
  if (Length > MaxPayloadBytes)
    return FrameStatus::Oversized;
  PayloadBytes = Length;
  return FrameStatus::Ok;
}

bool layra::writeFrame(int Fd, const std::string &Payload) {
  // The length field is 32 bits; a payload beyond it would silently wrap
  // in encodeFrameHeader and desynchronize the stream.  Refuse instead.
  if (Payload.size() > 0xFFFFFFFFu)
    return false;
  // One buffer, one send loop: header and payload arrive back-to-back.
  std::string Frame = encodeFrame(Payload);
  return sendAll(Fd, Frame.data(), Frame.size());
}

FrameStatus layra::readFrame(int Fd, std::string &Payload,
                             size_t MaxPayloadBytes) {
  unsigned char Header[kFrameHeaderBytes];
  ssize_t Got = recvFull(Fd, Header, sizeof(Header));
  if (Got < 0)
    return FrameStatus::IoError;
  if (Got == 0)
    return FrameStatus::Eof;
  if (static_cast<size_t>(Got) < sizeof(Header))
    return FrameStatus::Truncated;
  size_t PayloadBytes = 0;
  FrameStatus HeaderStatus =
      decodeFrameHeader(Header, MaxPayloadBytes, PayloadBytes);
  if (HeaderStatus != FrameStatus::Ok)
    return HeaderStatus;
  Payload.resize(PayloadBytes);
  if (PayloadBytes > 0) {
    ssize_t Body = recvFull(Fd, &Payload[0], PayloadBytes);
    if (Body < 0)
      return FrameStatus::IoError;
    if (static_cast<size_t>(Body) < PayloadBytes)
      return FrameStatus::Truncated;
  }
  return FrameStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

namespace {

/// Syntactic sanity bounds; semantic limits (queue, cache) live server-side.
constexpr size_t kMaxSuites = 16;
constexpr size_t kMaxRegCounts = 64;
constexpr unsigned kMaxRegValue = 1024;
constexpr unsigned kMaxRounds = 1024;

bool readBool(const JsonValue &Obj, const char *Key, bool &Out,
              std::string &Error) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isBool()) {
    Error = std::string("field '") + Key + "' must be a boolean";
    return false;
  }
  Out = V->boolValue();
  return true;
}

bool readString(const JsonValue &Obj, const char *Key, std::string &Out,
                std::string &Error) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isString()) {
    Error = std::string("field '") + Key + "' must be a string";
    return false;
  }
  Out = V->stringValue();
  return true;
}

/// Reads "regs": either one integer or an array of integers, each in
/// [1, kMaxRegValue].
bool readRegs(const JsonValue &Obj, std::vector<unsigned> &Out,
              std::string &Error) {
  const JsonValue *V = Obj.find("regs");
  if (!V) {
    Error = "field 'regs' is required";
    return false;
  }
  auto ReadOne = [&](const JsonValue &E) {
    long long R = E.isInt() ? E.intValue() : -1;
    if (R < 1 || R > static_cast<long long>(kMaxRegValue)) {
      Error = "'regs' entries must be integers in [1, " +
              std::to_string(kMaxRegValue) + "]";
      return false;
    }
    Out.push_back(static_cast<unsigned>(R));
    return true;
  };
  if (V->isInt())
    return ReadOne(*V);
  if (!V->isArray() || V->size() == 0) {
    Error = "'regs' must be an integer or a non-empty array of integers";
    return false;
  }
  if (V->size() > kMaxRegCounts) {
    Error = "'regs' lists at most " + std::to_string(kMaxRegCounts) +
            " register counts";
    return false;
  }
  for (const JsonValue &E : V->elements())
    if (!ReadOne(E))
      return false;
  return true;
}

/// Reads the optional "class_regs" object: class name -> budget override,
/// e.g. {"vfp": 8}.  Names are validated semantically by the server
/// against the request's target.
bool readClassRegs(const JsonValue &Obj,
                   std::vector<ClassRegOverride> &Out, std::string &Error) {
  const JsonValue *V = Obj.find("class_regs");
  if (!V)
    return true;
  if (!V->isObject() || V->size() == 0 || V->size() > kMaxRegClasses) {
    Error = "'class_regs' must be an object of 1.." +
            std::to_string(kMaxRegClasses) + " NAME: N entries";
    return false;
  }
  for (const auto &[Name, E] : V->members()) {
    long long R = E.isInt() ? E.intValue() : -1;
    if (Name.empty() || R < 1 ||
        R > static_cast<long long>(kMaxRegValue)) {
      Error = "'class_regs' entries must map a class name to an integer "
              "in [1, " +
              std::to_string(kMaxRegValue) + "]";
      return false;
    }
    Out.push_back({Name, static_cast<unsigned>(R)});
  }
  return true;
}

bool readOptions(const JsonValue &Obj, PipelineOptions &Out,
                 std::string &Error) {
  const JsonValue *V = Obj.find("options");
  if (!V)
    return true;
  if (!V->isObject()) {
    Error = "field 'options' must be an object";
    return false;
  }
  if (!readString(*V, "allocator", Out.AllocatorName, Error) ||
      !readBool(*V, "affinity", Out.AffinityBias, Error) ||
      !readBool(*V, "fold", Out.FoldMemoryOperands, Error))
    return false;
  if (const JsonValue *Rounds = V->find("max_rounds")) {
    long long R = Rounds->isInt() ? Rounds->intValue() : -1;
    if (R < 1 || R > static_cast<long long>(kMaxRounds)) {
      Error = "'options.max_rounds' must be an integer in [1, " +
              std::to_string(kMaxRounds) + "]";
      return false;
    }
    Out.MaxRounds = static_cast<unsigned>(R);
  }
  return true;
}

} // namespace

bool layra::parseServiceRequest(std::string_view Payload,
                                ServiceRequest &Out, std::string &Error) {
  JsonParseResult Parsed = parseJson(Payload);
  if (!Parsed.Ok) {
    Error = "malformed JSON at line " + std::to_string(Parsed.Line) +
            ", column " + std::to_string(Parsed.Column) + ": " + Parsed.Error;
    return false;
  }
  const JsonValue &Doc = Parsed.Value;
  if (!Doc.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  const JsonValue *Type = Doc.find("type");
  if (!Type || !Type->isString()) {
    Error = "request needs a string 'type' field";
    return false;
  }
  const std::string &Kind = Type->stringValue();

  Out = ServiceRequest();
  // Tracing is orthogonal to the request kind, so it parses before the
  // kind branches (ping/stats return early below).
  if (const JsonValue *TraceField = Doc.find("trace")) {
    if (TraceField->isBool()) {
      Out.Trace = TraceField->boolValue();
    } else if (TraceField->isString()) {
      if (!obs::isValidTraceId(TraceField->stringValue())) {
        Error = "'trace' id must be 1..64 characters of [A-Za-z0-9._:-]";
        return false;
      }
      Out.Trace = true;
      Out.TraceId = TraceField->stringValue();
    } else {
      Error = "field 'trace' must be a boolean or an id string";
      return false;
    }
  }
  if (Kind == "ping") {
    Out.K = ServiceRequest::Kind::Ping;
    return true;
  }
  if (Kind == "stats") {
    Out.K = ServiceRequest::Kind::Stats;
    return true;
  }

  if (Kind == "allocate") {
    Out.K = ServiceRequest::Kind::Allocate;
    const JsonValue *SuiteField = Doc.find("suite");
    if (!SuiteField) {
      Error = "allocate requests need a 'suite' field";
      return false;
    }
    if (SuiteField->isString()) {
      Out.Suites.push_back(SuiteField->stringValue());
    } else if (SuiteField->isArray() && SuiteField->size() > 0 &&
               SuiteField->size() <= kMaxSuites) {
      for (const JsonValue &E : SuiteField->elements()) {
        if (!E.isString()) {
          Error = "'suite' array entries must be strings";
          return false;
        }
        Out.Suites.push_back(E.stringValue());
      }
    } else {
      Error = "'suite' must be a string or an array of 1.." +
              std::to_string(kMaxSuites) + " strings";
      return false;
    }
  } else if (Kind == "submit_ir") {
    Out.K = ServiceRequest::Kind::SubmitIr;
    const JsonValue *Ir = Doc.find("ir");
    if (!Ir || !Ir->isString() || Ir->stringValue().empty()) {
      Error = "submit_ir requests need a non-empty string 'ir' field";
      return false;
    }
    Out.IrText = Ir->stringValue();
    if (!readString(Doc, "name", Out.Name, Error))
      return false;
    if (const JsonValue *Base = Doc.find("base")) {
      uint64_t Key = 0;
      if (!Base->isString() || !parseBaseKey(Base->stringValue(), Key)) {
        Error = "'base' must be a base key: exactly 16 lowercase hex "
                "digits (see docs/PROTOCOL.md, submit_ir)";
        return false;
      }
      Out.Base = Base->stringValue();
    }
  } else {
    Error = "unknown request type '" + Kind + "'";
    return false;
  }

  // Shared allocate / submit_ir tail.
  if (!readRegs(Doc, Out.Regs, Error) ||
      !readClassRegs(Doc, Out.ClassRegs, Error) ||
      !readString(Doc, "target", Out.TargetName, Error) ||
      !readOptions(Doc, Out.Options, Error) ||
      !readBool(Doc, "timing", Out.Timing, Error) ||
      !readBool(Doc, "details", Out.Details, Error))
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Shard routing
//===----------------------------------------------------------------------===//

namespace {

/// SplitMix64-style mixing, the same scheme the solver caches hash with
/// (driver/BatchDriver.cpp): cheap, stable across runs, and good enough
/// dispersion that `hash % shards` balances real request mixes.
uint64_t routeMix(uint64_t H, uint64_t Value) {
  H ^= Value + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return H ^ (H >> 27);
}

uint64_t routeMixString(uint64_t H, const std::string &S) {
  H = routeMix(H, S.size());
  for (unsigned char C : S)
    H = routeMix(H, C);
  return H;
}

} // namespace

uint64_t layra::submitIrBaseKey(const std::string &IrText) {
  // Documented, client-computable fold of the IR text (docs/PROTOCOL.md
  // spells out the mixer).
  uint64_t H = 0x6c79726162617365ULL; // "lyrabase"
  H = routeMix(H, IrText.size());
  for (unsigned char C : IrText)
    H = routeMix(H, C);
  // 0 is not a valid key (parseBaseKey); remap the (2^-64) collision.
  return H ? H : 0x6c79726162617365ULL;
}

std::string layra::formatBaseKey(uint64_t Key) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Key));
  return std::string(Buf, 16);
}

bool layra::parseBaseKey(const std::string &Text, uint64_t &Key) {
  if (Text.size() != 16)
    return false;
  uint64_t Parsed = 0;
  for (char C : Text) {
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<unsigned>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<unsigned>(C - 'a') + 10;
    else
      return false; // Uppercase and prefixes are rejected: one wire form.
    Parsed = (Parsed << 4) | Digit;
  }
  if (Parsed == 0)
    return false;
  Key = Parsed;
  return true;
}

uint64_t layra::routeRequestHash(const ServiceRequest &Req) {
  uint64_t H = 0x6c617972612d7368ULL; // "layra-sh"
  H = routeMix(H, static_cast<uint64_t>(Req.K));
  for (const std::string &Suite : Req.Suites)
    H = routeMixString(H, Suite);
  for (unsigned R : Req.Regs)
    H = routeMix(H, R);
  for (const ClassRegOverride &O : Req.ClassRegs) {
    H = routeMixString(H, O.Class);
    H = routeMix(H, O.Regs);
  }
  H = routeMixString(H, Req.TargetName);
  H = routeMixString(H, Req.Options.AllocatorName);
  H = routeMix(H, Req.Options.MaxRounds);
  H = routeMix(H, (Req.Options.AffinityBias ? 1u : 0u) |
                      (Req.Options.FoldMemoryOperands ? 2u : 0u) |
                      (Req.Timing ? 4u : 0u) | (Req.Details ? 8u : 0u));
  H = routeMixString(H, Req.IrText);
  H = routeMixString(H, Req.Name);
  return H;
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

namespace {

/// Appends the minimal trace echo shared by pong/error (and stats)
/// responses.  New keys land at the end of the object, so traced and
/// untraced payloads differ only by this trailing member.
void appendTraceEcho(JsonValue &Doc, const std::string &TraceId) {
  if (TraceId.empty())
    return;
  JsonValue TraceDoc = JsonValue::object();
  TraceDoc.set("id", TraceId);
  Doc.set("trace", std::move(TraceDoc));
}

} // namespace

std::string layra::makeErrorResponse(const std::string &Message,
                                     const std::string &TraceId) {
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", kErrorSchema);
  Doc.set("error", Message);
  appendTraceEcho(Doc, TraceId);
  return Doc.dump(2) + "\n";
}

std::string layra::makePongResponse(const std::string &TraceId) {
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", kPongSchema);
  Doc.set("protocol", kServeProtocolVersion);
  appendTraceEcho(Doc, TraceId);
  return Doc.dump(2) + "\n";
}
