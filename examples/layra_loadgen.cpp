//===- examples/layra_loadgen.cpp - Allocation-server load generator ------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `layra-loadgen`: drives a running `layra-serve` with N concurrent client
/// connections replaying allocate requests, then reports throughput and
/// client-observed latency percentiles (p50/p95/p99 from the same
/// log-linear histogram type the server uses, obs/Metrics.h, so the two
/// ends' figures are bucket-for-bucket comparable).  Doubles as the CI
/// smoke driver: the exit status is nonzero unless every request completed
/// and -- because responses are deterministic -- every client saw
/// byte-identical answers to the identical request.
///
/// All connections are multiplexed on ONE thread through poll(2) --
/// mirroring the server's own event loop -- so `--clients=2000` costs two
/// thousand sockets, not two thousand threads, and the measured latency
/// is not polluted by client-side scheduler noise.  Each connection keeps
/// one request in flight (closed loop) unless `--rps` switches to
/// open-loop pacing: requests are then released on a fixed global
/// schedule, independent of responses, which is the arrival model that
/// actually exposes queueing behavior.
///
/// Usage:
///   layra-loadgen (--unix=PATH | --tcp=PORT [--host=ADDR])
///                 [--clients=N] [--requests=M | --duration=SECS]
///                 [--rps=N] [--suite=NAME[,NAME...]]
///                 [--regs=LO..HI|--regs=A,B,C] [--allocator=NAME]
///                 [--target=NAME] [--details] [--timing]
///                 [--stats] [--trace-sample=K] [--quiet]
///
///   --clients     concurrent connections (default 4)
///   --requests    requests per client (default 8)
///   --duration    run for SECS seconds (fractions ok) instead of a fixed
///                 request count; every client still sends at least one
///                 request.  Mutually exclusive with --requests
///   --rps         open-loop request release rate, requests per second
///                 across all clients (default 0 = closed loop: each idle
///                 client sends immediately)
///   --suite       suites named in each request (default eembc)
///   --regs        register counts per request (default 4..8)
///   --stats       fetch and print the server's stats payload at the end,
///                 plus a per-shard cache hit-rate summary (stats v3)
///   --trace-sample=K
///                 request a traced response (docs/PROTOCOL.md `trace`
///                 field) for every K-th request of each client and print
///                 a per-phase latency breakdown table: the server's
///                 accept/queue_wait/dispatch/driver spans plus the
///                 flush+network residual against client-observed
///                 latency.  Each sampled request carries a unique trace
///                 id; a response that fails to echo it counts as a
///                 failed request.  Traced responses are excluded from
///                 the byte-identity check (they differ by exactly the
///                 trace object)
///
/// Example:
///   layra-loadgen --unix=/tmp/layra.sock --clients=8 --requests=32
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "service/Client.h"
#include "support/Json.h"
#include "support/ParseUtil.h"
#include "support/Socket.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <vector>

using namespace layra;

namespace {

struct LoadOptions {
  std::string UnixPath;
  bool UseTcp = false;
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  unsigned Clients = 4;
  unsigned Requests = 8;
  bool RequestsSet = false;
  /// Timed-run length in seconds; 0 = fixed request count per client.
  double DurationSecs = 0;
  /// Open-loop release rate across all clients; 0 = closed loop.
  double Rps = 0;
  std::vector<std::string> Suites{"eembc"};
  std::vector<unsigned> Regs{4, 5, 6, 7, 8};
  std::string Allocator = "bfpl";
  std::string Target = "st231";
  bool Details = false;
  bool Timing = false;
  bool FetchStats = false;
  bool Quiet = false;
  /// Trace every K-th request per client; 0 = tracing off.
  unsigned TraceSample = 0;
};

[[noreturn]] void usage(const char *Argv0, const char *Error = nullptr) {
  if (Error)
    std::fprintf(stderr, "error: %s\n", Error);
  std::fprintf(
      stderr,
      "usage: %s (--unix=PATH | --tcp=PORT [--host=ADDR])\n"
      "          [--clients=N] [--requests=M | --duration=SECS]\n"
      "          [--rps=N] [--suite=NAME[,NAME...]]\n"
      "          [--regs=LO..HI|--regs=A,B,C] [--allocator=NAME]\n"
      "          [--target=NAME] [--details] [--timing]\n"
      "          [--stats] [--trace-sample=K] [--quiet]\n",
      Argv0);
  std::exit(2);
}

LoadOptions parseArgs(int Argc, char **Argv) {
  LoadOptions Opt;
  unsigned Parsed = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      if (Arg.compare(0, Len, Prefix) != 0)
        return nullptr;
      return Arg.c_str() + Len;
    };
    if (const char *V = Value("--unix=")) {
      Opt.UnixPath = V;
    } else if (const char *V = Value("--tcp=")) {
      if (!parseBoundedUnsigned(V, 65535, Parsed) || Parsed == 0)
        usage(Argv[0], "--tcp must be a port in [1, 65535]");
      Opt.UseTcp = true;
      Opt.Port = static_cast<uint16_t>(Parsed);
    } else if (const char *V = Value("--host=")) {
      Opt.Host = V;
    } else if (const char *V = Value("--clients=")) {
      if (!parseBoundedUnsigned(V, 16384, Opt.Clients) || Opt.Clients == 0)
        usage(Argv[0], "--clients must be an integer in [1, 16384]");
    } else if (const char *V = Value("--requests=")) {
      if (!parseBoundedUnsigned(V, 1u << 20, Opt.Requests) ||
          Opt.Requests == 0)
        usage(Argv[0], "--requests must be an integer in [1, 2^20]");
      Opt.RequestsSet = true;
    } else if (const char *V = Value("--duration=")) {
      if (!parsePositiveReal(V, 86400.0, Opt.DurationSecs))
        usage(Argv[0],
              "--duration must be a positive number of seconds (<= 86400)");
    } else if (const char *V = Value("--rps=")) {
      // A rate, not a duration: same strict positive-real grammar, honest
      // name (parsePositiveSeconds would have read as seconds here).
      if (!parsePositiveReal(V, 1e7, Opt.Rps))
        usage(Argv[0], "--rps must be a positive rate (<= 1e7)");
    } else if (const char *V = Value("--suite=")) {
      Opt.Suites = splitCommaList(V);
      if (Opt.Suites.empty())
        usage(Argv[0], "--suite must name at least one suite");
    } else if (const char *V = Value("--regs=")) {
      std::string Error;
      if (!parseRegList(V, 1024, Opt.Regs, Error))
        usage(Argv[0], Error.c_str());
    } else if (const char *V = Value("--allocator=")) {
      Opt.Allocator = V;
    } else if (const char *V = Value("--target=")) {
      Opt.Target = V;
    } else if (const char *V = Value("--trace-sample=")) {
      if (!parseBoundedUnsigned(V, 1u << 20, Opt.TraceSample) ||
          Opt.TraceSample == 0)
        usage(Argv[0], "--trace-sample must be an integer in [1, 2^20]");
    } else if (Arg == "--details") {
      Opt.Details = true;
    } else if (Arg == "--timing") {
      Opt.Timing = true;
    } else if (Arg == "--stats") {
      Opt.FetchStats = true;
    } else if (Arg == "--quiet") {
      Opt.Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
    } else {
      usage(Argv[0], ("unknown argument '" + Arg + "'").c_str());
    }
  }
  if (Opt.UnixPath.empty() && !Opt.UseTcp)
    usage(Argv[0], "pass --unix=PATH or --tcp=PORT");
  if (!Opt.UnixPath.empty() && Opt.UseTcp)
    usage(Argv[0], "pass only one of --unix / --tcp");
  if (Opt.DurationSecs > 0 && Opt.RequestsSet)
    usage(Argv[0], "pass only one of --requests / --duration");
  return Opt;
}

Client connect(const LoadOptions &Opt, std::string *Error) {
  if (Opt.UseTcp)
    return Client::connectToTcp(Opt.Host, Opt.Port, Error);
  return Client::connectToUnix(Opt.UnixPath, Error);
}

/// One multiplexed connection's state machine.  A connection is either
/// idle (no request in flight) or busy: writing the request frame out of
/// Out, then accumulating the response frame into In.
struct Conn {
  SocketFd Fd;
  unsigned Index = 0;
  bool Dead = false;
  bool Busy = false;
  /// Request frame being written; OutPos marks sent bytes.
  std::string Out;
  size_t OutPos = 0;
  /// Response frame accumulating.
  std::string In;
  uint64_t Sent = 0;     ///< Requests issued on this connection.
  unsigned Completed = 0;
  bool Traced = false;   ///< The in-flight request asked for a trace.
  std::string TraceId;
  std::chrono::steady_clock::time_point SendTime;
};

double msBetween(std::chrono::steady_clock::time_point A,
                 std::chrono::steady_clock::time_point B) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(B - A)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  LoadOptions Opt = parseArgs(Argc, Argv);

  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::Allocate;
  Req.Suites = Opt.Suites;
  Req.Regs = Opt.Regs;
  Req.TargetName = Opt.Target;
  Req.Options.AllocatorName = Opt.Allocator;
  Req.Timing = Opt.Timing;
  Req.Details = Opt.Details;
  const std::string PlainFrame = encodeFrame(Client::makeAllocateRequest(Req));

  uint64_t Completed = 0, Failed = 0, Mismatched = 0;
  std::string ReferenceResponse; // First response; all others must match.
  // Per-span accumulation over traced responses (name -> {sum ms, count}),
  // plus the client-observed latency of exactly those requests so the
  // breakdown table and its residual line add up over the same sample.
  std::map<std::string, std::pair<double, uint64_t>> SpanAgg;
  double TracedClientMs = 0;
  uint64_t TracedCount = 0;
  Histogram Latency;

  // One fd per client plus headroom; ask before connecting so 2000
  // clients do not die at the default soft limit of 1024.
  raiseFdLimit(Opt.Clients + 16);

  std::vector<Conn> Conns(Opt.Clients);
  for (unsigned C = 0; C < Opt.Clients; ++C) {
    Conns[C].Index = C;
    std::string Error;
    SocketFd Fd = Opt.UseTcp ? connectTcp(Opt.Host, Opt.Port, &Error)
                             : connectUnix(Opt.UnixPath, &Error);
    if (!Fd.valid()) {
      std::fprintf(stderr, "client %u: %s\n", C, Error.c_str());
      // Same accounting the threaded loadgen used: a client that never
      // connected fails its whole quota (one request in timed mode).
      Failed += Opt.DurationSecs > 0 ? 1 : Opt.Requests;
      Conns[C].Dead = true;
      continue;
    }
    setNonBlocking(Fd.fd());
    setTcpNoDelay(Fd.fd());
    Conns[C].Fd = std::move(Fd);
  }

  auto Begin = std::chrono::steady_clock::now();
  auto Deadline =
      Begin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(Opt.DurationSecs));
  // Open-loop schedule: the next instant a request may be released.
  // Slots that fall due while every client is busy accumulate, so a
  // stalled server faces the catch-up burst a real open-loop arrival
  // process would deliver.
  double ReleaseIntervalMs = Opt.Rps > 0 ? 1000.0 / Opt.Rps : 0;
  double NextReleaseMs = 0;

  auto wantMore = [&](const Conn &C) {
    if (Opt.DurationSecs > 0)
      // Timed mode: at least one request per client, then the deadline.
      return C.Sent == 0 || std::chrono::steady_clock::now() < Deadline;
    return C.Sent < Opt.Requests;
  };

  auto startRequest = [&](Conn &C) {
    C.Busy = true;
    C.Traced = Opt.TraceSample > 0 && C.Sent % Opt.TraceSample == 0;
    if (C.Traced) {
      // A unique id per sampled request proves the echo is really
      // per-request, not a cached or crossed response.
      ServiceRequest TReq = Req;
      TReq.Trace = true;
      C.TraceId =
          "lg" + std::to_string(C.Index) + "-" + std::to_string(C.Sent);
      TReq.TraceId = C.TraceId;
      C.Out = encodeFrame(Client::makeAllocateRequest(TReq));
    } else {
      C.Out = PlainFrame;
    }
    C.OutPos = 0;
    C.In.clear();
    ++C.Sent;
    C.SendTime = std::chrono::steady_clock::now();
  };

  // Handles one complete response payload; returns false when the run
  // should treat it as a failed request.
  auto finishRequest = [&](Conn &C, const std::string &Response) {
    double Ms = msBetween(C.SendTime, std::chrono::steady_clock::now());
    C.Busy = false;
    ++C.Completed;
    if (Client::isErrorResponse(Response)) {
      std::fprintf(stderr, "client %u request %llu: server error: %s\n",
                   C.Index, static_cast<unsigned long long>(C.Sent - 1),
                   Response.c_str());
      ++Failed;
      return;
    }
    if (C.Traced) {
      // The echoed trace id must be the one this request carried;
      // anything else means the span data belongs to someone else.
      JsonParseResult Parsed = parseJson(Response);
      const JsonValue *Trace =
          Parsed.Ok ? Parsed.Value.find("trace") : nullptr;
      const JsonValue *Id = Trace ? Trace->find("id") : nullptr;
      if (!Id || !Id->isString() || Id->stringValue() != C.TraceId) {
        std::fprintf(stderr,
                     "client %u request %llu: trace id '%s' not echoed\n",
                     C.Index, static_cast<unsigned long long>(C.Sent - 1),
                     C.TraceId.c_str());
        ++Failed;
        return;
      }
      ++Completed;
      Latency.record(Ms);
      ++TracedCount;
      TracedClientMs += Ms;
      if (const JsonValue *Spans = Trace->find("spans"))
        for (const JsonValue &Span : Spans->elements())
          if (const JsonValue *Name = Span.find("name"))
            if (const JsonValue *Dur = Span.find("dur_ms")) {
              auto &Agg = SpanAgg[Name->stringValue()];
              Agg.first += Dur->numberValue();
              ++Agg.second;
            }
      // Traced responses carry the trace object, so they are by design
      // not byte-identical to the reference response.
      return;
    }
    ++Completed;
    Latency.record(Ms);
    // Deterministic protocol: when timing is off, every response to the
    // identical request must be byte-identical across clients.
    if (!Opt.Timing) {
      if (ReferenceResponse.empty())
        ReferenceResponse = Response;
      else if (Response != ReferenceResponse)
        ++Mismatched;
    }
  };

  auto killConn = [&](Conn &C, const char *Why) {
    if (C.Busy) {
      std::fprintf(stderr, "client %u request %llu: %s\n", C.Index,
                   static_cast<unsigned long long>(C.Sent - 1), Why);
      ++Failed;
    } else if (wantMore(C)) {
      std::fprintf(stderr, "client %u: %s\n", C.Index, Why);
      ++Failed;
    }
    C.Dead = true;
    C.Fd.reset();
  };

  std::vector<pollfd> Fds;
  std::vector<Conn *> FdConns;
  while (true) {
    // Release phase: start requests on idle clients that still have
    // quota, respecting the open-loop schedule when --rps is set.
    double NowMs = msBetween(Begin, std::chrono::steady_clock::now());
    for (Conn &C : Conns) {
      if (C.Dead || C.Busy || !wantMore(C))
        continue;
      if (ReleaseIntervalMs > 0) {
        if (NowMs < NextReleaseMs)
          break; // Next slot not due; and slots are global, so stop here.
        NextReleaseMs += ReleaseIntervalMs;
      }
      startRequest(C);
    }

    Fds.clear();
    FdConns.clear();
    bool AnyBusy = false, AnyPending = false;
    for (Conn &C : Conns) {
      if (C.Dead)
        continue;
      if (!C.Busy) {
        if (wantMore(C))
          AnyPending = true;
        continue;
      }
      AnyBusy = true;
      short Ev = 0;
      if (C.OutPos < C.Out.size())
        Ev |= POLLOUT;
      else
        Ev |= POLLIN;
      Fds.push_back({C.Fd.fd(), Ev, 0});
      FdConns.push_back(&C);
    }
    if (!AnyBusy && !AnyPending)
      break; // Every client exhausted its quota (or died).
    if (Fds.empty()) {
      // Idle clients gated on the release schedule: sleep to the slot --
      // but never when it is already due.  Sleeping a minimum 1 ms here
      // capped the whole generator at ~1000 req/s regardless of --rps;
      // an overdue schedule must release immediately (truncation keeps
      // sub-millisecond waits spinning through poll(0), which is what
      // >1 kHz pacing needs).
      double SleepMs = NextReleaseMs - NowMs;
      if (SleepMs > 0)
        ::poll(nullptr, 0, SleepMs > 100 ? 100 : int(SleepMs));
      continue;
    }
    int Timeout = 100;
    if (ReleaseIntervalMs > 0 && AnyPending) {
      // Same rule under I/O: an overdue release slot means poll must not
      // block at all (the old 1 ms floor was the ~1000 req/s ceiling).
      double SleepMs = NextReleaseMs - NowMs;
      Timeout = SleepMs <= 0 ? 0 : (SleepMs > 100 ? 100 : int(SleepMs));
    } else if (AnyPending) {
      Timeout = 0; // Closed loop with idle clients: release next pass.
    }
    if (::poll(Fds.data(), nfds_t(Fds.size()), Timeout) < 0) {
      if (errno == EINTR)
        continue;
      std::perror("poll");
      return 1;
    }
    for (size_t I = 0; I < Fds.size(); ++I) {
      Conn &C = *FdConns[I];
      if (C.Dead || !Fds[I].revents)
        continue;
      if (Fds[I].revents & (POLLERR | POLLNVAL)) {
        killConn(C, "connection error");
        continue;
      }
      if (Fds[I].revents & POLLOUT) {
        while (C.OutPos < C.Out.size()) {
          ssize_t N = ::send(C.Fd.fd(), C.Out.data() + C.OutPos,
                             C.Out.size() - C.OutPos, MSG_NOSIGNAL);
          if (N > 0) {
            C.OutPos += size_t(N);
            continue;
          }
          if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          if (N < 0 && errno == EINTR)
            continue;
          killConn(C, "send failed");
          break;
        }
        continue;
      }
      if (Fds[I].revents & (POLLIN | POLLHUP)) {
        char Buf[64 << 10];
        bool Closed = false;
        while (true) {
          ssize_t N = ::recv(C.Fd.fd(), Buf, sizeof Buf, 0);
          if (N > 0) {
            C.In.append(Buf, size_t(N));
            if (size_t(N) < sizeof Buf)
              break;
            continue;
          }
          if (N == 0) {
            Closed = true;
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
          if (errno == EINTR)
            continue;
          Closed = true;
          break;
        }
        if (C.In.size() >= kFrameHeaderBytes) {
          size_t PayloadBytes = 0;
          FrameStatus FS = decodeFrameHeader(
              reinterpret_cast<const unsigned char *>(C.In.data()),
              kDefaultMaxFrameBytes, PayloadBytes);
          if (FS != FrameStatus::Ok) {
            killConn(C, "bad response frame");
            continue;
          }
          if (C.In.size() >= kFrameHeaderBytes + PayloadBytes) {
            // Serial per connection: exactly one response outstanding,
            // so one complete frame finishes the in-flight request.
            std::string Response =
                C.In.substr(kFrameHeaderBytes, PayloadBytes);
            C.In.erase(0, kFrameHeaderBytes + PayloadBytes);
            finishRequest(C, Response);
          }
        }
        if (Closed && C.Busy)
          killConn(C, "connection closed mid-response");
        else if (Closed)
          C.Dead = true;
      }
    }
  }
  double TotalMs = msBetween(Begin, std::chrono::steady_clock::now());

  HistogramSnapshot Snap = Latency.snapshot();
  if (!Opt.Quiet) {
    if (Opt.DurationSecs > 0)
      std::printf("layra-loadgen: %llu requests completed over %u "
                  "clients in %.1f ms (%.1f req/s)\n",
                  static_cast<unsigned long long>(Completed), Opt.Clients,
                  TotalMs, Completed > 0 ? 1000.0 * Completed / TotalMs : 0.0);
    else
      std::printf("layra-loadgen: %llu/%llu requests completed over %u "
                  "clients in %.1f ms (%.1f req/s)\n",
                  static_cast<unsigned long long>(Completed),
                  static_cast<unsigned long long>(
                      static_cast<uint64_t>(Opt.Clients) * Opt.Requests),
                  Opt.Clients, TotalMs,
                  Completed > 0 ? 1000.0 * Completed / TotalMs : 0.0);
    if (Snap.Count > 0)
      std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f\n",
                  Snap.percentile(0.50), Snap.percentile(0.95),
                  Snap.percentile(0.99), Snap.meanMs());
    if (Opt.Rps > 0)
      std::printf("rate: requested %.1f req/s, achieved %.1f req/s\n",
                  Opt.Rps,
                  Completed > 0 ? 1000.0 * Completed / TotalMs : 0.0);
    if (Mismatched > 0)
      std::printf("DETERMINISM VIOLATION: %llu responses differed\n",
                  static_cast<unsigned long long>(Mismatched));
    if (Opt.TraceSample > 0 && TracedCount > 0) {
      // Server-side spans in request order, then the part of the client
      // latency the server never sees (response flush + network + client
      // parse) as the residual, so the rows sum to the client mean.
      std::printf("trace breakdown (%llu sampled requests, mean ms):\n",
                  static_cast<unsigned long long>(TracedCount));
      const char *Order[] = {"accept", "queue_wait", "dispatch", "driver"};
      double Accounted = 0;
      for (const char *Name : Order) {
        auto It = SpanAgg.find(Name);
        double Mean =
            It != SpanAgg.end() && It->second.second > 0
                ? It->second.first / static_cast<double>(It->second.second)
                : 0.0;
        Accounted += Mean;
        std::printf("  %-12s %9.3f\n", Name, Mean);
      }
      double ClientMean = TracedClientMs / static_cast<double>(TracedCount);
      double Residual = ClientMean - Accounted;
      std::printf("  %-12s %9.3f\n", "flush+net",
                  Residual > 0 ? Residual : 0.0);
      std::printf("  %-12s %9.3f\n", "client total", ClientMean);
    }
  }

  if (Opt.FetchStats) {
    std::string Error, Stats;
    Client Conn = connect(Opt, &Error);
    if (Conn.valid() && Conn.stats(Stats, &Error)) {
      std::fputs(Stats.c_str(), stdout);
      // Per-shard hit-rate summary out of the v3 `shards` array: the
      // one-line view of whether content-hash routing kept each shard's
      // cache warm.
      JsonParseResult Parsed = parseJson(Stats);
      const JsonValue *Shards =
          Parsed.Ok ? Parsed.Value.find("shards") : nullptr;
      if (!Opt.Quiet && Shards && Shards->isArray()) {
        for (const JsonValue &Sh : Shards->elements()) {
          const JsonValue *Id = Sh.find("shard");
          const JsonValue *Requests = Sh.find("requests");
          const JsonValue *Cache = Sh.find("cache");
          const JsonValue *HitRate = Cache ? Cache->find("hit_rate") : nullptr;
          if (Id && Requests && HitRate)
            std::fprintf(stderr,
                         "shard %lld: %lld requests, cache hit rate %.2f\n",
                         static_cast<long long>(Id->intValue()),
                         static_cast<long long>(Requests->intValue()),
                         HitRate->numberValue());
        }
      }
    } else {
      std::fprintf(stderr, "stats fetch failed: %s\n", Error.c_str());
    }
  }

  bool Ok = Completed > 0 && Failed == 0 && Mismatched == 0;
  return Ok ? 0 : 1;
}
