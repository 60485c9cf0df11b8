//===- service/Client.cpp - Allocation-service client ----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include <cstdlib>

using namespace layra;

Client Client::connectToTcp(const std::string &Host, uint16_t Port,
                            std::string *Error) {
  return Client(connectTcp(Host, Port, Error));
}

Client Client::connectToUnix(const std::string &Path, std::string *Error) {
  return Client(connectUnix(Path, Error));
}

Client Client::connectToSpec(const std::string &Spec, std::string *Error) {
  if (Spec.compare(0, 5, "unix:") == 0)
    return connectToUnix(Spec.substr(5), Error);
  if (Spec.compare(0, 4, "tcp:") == 0) {
    std::string Rest = Spec.substr(4);
    size_t Colon = Rest.rfind(':');
    if (Colon == std::string::npos || Colon == 0 ||
        Colon + 1 >= Rest.size()) {
      if (Error)
        *Error = "expected tcp:HOST:PORT in '" + Spec + "'";
      return Client();
    }
    char *End = nullptr;
    unsigned long Port = std::strtoul(Rest.c_str() + Colon + 1, &End, 10);
    if (!End || *End || Port == 0 || Port > 65535) {
      if (Error)
        *Error = "invalid port in '" + Spec + "'";
      return Client();
    }
    return connectToTcp(Rest.substr(0, Colon), static_cast<uint16_t>(Port),
                        Error);
  }
  if (Error)
    *Error = "connection spec must start with unix: or tcp: ('" + Spec +
             "')";
  return Client();
}

bool Client::call(const std::string &RequestPayload,
                  std::string &ResponsePayload, std::string *Error,
                  size_t MaxFrameBytes) {
  if (!Fd.valid()) {
    if (Error)
      *Error = "not connected";
    return false;
  }
  if (!writeFrame(Fd.fd(), RequestPayload)) {
    if (Error)
      *Error = "request write failed (server gone?)";
    return false;
  }
  FrameStatus Status = readFrame(Fd.fd(), ResponsePayload, MaxFrameBytes);
  if (Status != FrameStatus::Ok) {
    if (Error)
      *Error = std::string("response read failed: ") +
               frameStatusName(Status);
    return false;
  }
  return true;
}

bool Client::ping(std::string *Error) {
  JsonValue Doc = JsonValue::object();
  Doc.set("type", "ping");
  std::string Response;
  if (!call(Doc.dump(0), Response, Error))
    return false;
  JsonParseResult Parsed = parseJson(Response);
  if (!Parsed.Ok || !Parsed.Value.find("schema") ||
      Parsed.Value.find("schema")->stringValue() != kPongSchema) {
    if (Error)
      *Error = "unexpected ping response";
    return false;
  }
  return true;
}

bool Client::stats(std::string &ResponsePayload, std::string *Error) {
  JsonValue Doc = JsonValue::object();
  Doc.set("type", "stats");
  return call(Doc.dump(0), ResponsePayload, Error);
}

namespace {

/// The fields allocate and submit_ir share.
void appendCommon(JsonValue &Doc, const ServiceRequest &Req) {
  JsonValue Regs = JsonValue::array();
  for (unsigned R : Req.Regs)
    Regs.push(R);
  Doc.set("regs", std::move(Regs));
  if (!Req.ClassRegs.empty()) {
    JsonValue Classes = JsonValue::object();
    for (const ClassRegOverride &O : Req.ClassRegs)
      Classes.set(O.Class, O.Regs);
    Doc.set("class_regs", std::move(Classes));
  }
  Doc.set("target", Req.TargetName);
  JsonValue Options = JsonValue::object();
  Options.set("allocator", Req.Options.AllocatorName);
  Options.set("affinity", Req.Options.AffinityBias);
  Options.set("fold", Req.Options.FoldMemoryOperands);
  Options.set("max_rounds", Req.Options.MaxRounds);
  Doc.set("options", std::move(Options));
  Doc.set("timing", Req.Timing);
  Doc.set("details", Req.Details);
  // Tracing is strictly opt-in on the wire: absent unless requested, so
  // untraced request payloads (and thus response bytes) are unchanged.
  if (Req.Trace)
    Doc.set("trace", Req.TraceId.empty() ? JsonValue(true)
                                         : JsonValue(Req.TraceId));
}

} // namespace

std::string Client::makeAllocateRequest(const ServiceRequest &Req) {
  JsonValue Doc = JsonValue::object();
  Doc.set("type", "allocate");
  if (Req.Suites.size() == 1) {
    Doc.set("suite", Req.Suites.front());
  } else {
    JsonValue Suites = JsonValue::array();
    for (const std::string &S : Req.Suites)
      Suites.push(S);
    Doc.set("suite", std::move(Suites));
  }
  appendCommon(Doc, Req);
  return Doc.dump(0);
}

bool Client::isErrorResponse(const std::string &ResponsePayload) {
  JsonParseResult Parsed = parseJson(ResponsePayload);
  if (!Parsed.Ok)
    return true; // A response the client cannot read is not a success.
  const JsonValue *Schema = Parsed.Value.find("schema");
  return !Schema || Schema->stringValue() == kErrorSchema;
}

std::string Client::makeSubmitIrRequest(const ServiceRequest &Req) {
  JsonValue Doc = JsonValue::object();
  Doc.set("type", "submit_ir");
  Doc.set("ir", Req.IrText);
  if (!Req.Name.empty())
    Doc.set("name", Req.Name);
  // The optional hint naming an earlier submission; the server validates
  // and ignores it.
  if (!Req.Base.empty())
    Doc.set("base", Req.Base);
  appendCommon(Doc, Req);
  return Doc.dump(0);
}
