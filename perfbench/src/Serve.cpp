//===- Serve.cpp - The serve workload --------------------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// An in-process Server on a Unix socket, driven closed-loop by this thread
// over kConnections poll-multiplexed connections: compilers and JITs wait
// for their reply, so a slow server receives less load.  The server's IO
// thread and its kShards single-threaded shard workers plus this client
// thread use the four processors the benchmark is sized for.
//
// The traffic follows layra-loadgen's two scenarios.  Each request is a
// hit or a submit with equal odds (the seed draws which):
//  - hits: loadgen's default request, `allocate` of eembc at 4..8
//    registers, one register count per request; the warm-up solved each
//    once, so shard caches answer them;
//  - submits, as in `layra-loadgen --edit-heavy`: for each function of the
//    pool in turn, a from-scratch `submit_ir` (a miss) and then one with
//    the `base` key (a delta), each with a unique frequency edit.  Misses
//    solve and insert into the cache; deltas take the warm-start path.
//    Both kinds solve the same functions, so their latencies compare.
// Hits load only the service and serialization path; misses put the solver
// behind it; deltas exercise core/Delta.
//
// Every response is checked after the timed window against the bytes a
// direct, fresh BatchDriver run of the same request serializes (for a
// delta: a fresh solve of the edited function).
//
//===----------------------------------------------------------------------===//

#include "Checker.h"
#include "Replay.h"
#include "Spans.h"
#include "Workloads.h"

#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "ir/Dominators.h"
#include "ir/LoopInfo.h"
#include "ir/Parser.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "suites/Suites.h"
#include "support/Socket.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace layra;
using namespace perfbench;

namespace {

constexpr unsigned kShards = 2;
/// layra-loadgen's default --clients, and nproc.
constexpr unsigned kConnections = 4;
/// Medium functions, every one registered as a delta base in the warm-up.
constexpr unsigned kPoolSize = 8;
/// Odds that a request is a hit rather than a submit.
constexpr double kHitShare = 0.5;
/// One register count per submit, the top of loadgen's default 4..8.
constexpr unsigned kSubmitRegs = 8;
/// Functions the traced run replays through the public layer calls.
constexpr unsigned kReplaySample = 32;
/// Seconds of the window between two pauses, and set-up samples taken in
/// each pause.  A sample takes a few milliseconds and lands in one of two
/// modes about a third apart, so a steady median needs many of them.
constexpr double kPauseSeconds = 2;
constexpr unsigned kSetupsPerPause = 5;

/// Hits: layra-loadgen's default `--suite=eembc --regs=4..8`, one request
/// per register count.
const char *const kMenuSuite = "eembc";
constexpr unsigned kMenuFirstRegs = 4;
constexpr unsigned kMenuSize = 5;

enum class Kind { Hit, Miss, Delta };

/// A medium function rendered as IR text, split around the frequency of
/// its deepest block so every request can carry a unique edit.
struct PoolFn {
  std::string Prefix, Suffix;
  Weight Freq = 1;
  std::string text(uint64_t Edit) const {
    return Prefix + std::to_string(Freq + Weight(Edit)) + Suffix;
  }
  std::string baseKey() const {
    return formatBaseKey(submitIrBaseKey(text(0)));
  }
};

struct Request {
  Kind K = Kind::Hit;
  unsigned Item = 0;  ///< Menu index (hit) or pool index.
  uint64_t Edit = 0;  ///< Unique frequency edit (miss, delta).
};

/// The medium-function pool, a spec2000int-like shape.  The pool is the
/// same on every seed (the seed drives the request stream), so the cost
/// of a miss does not depend on which seed a run got.
std::vector<PoolFn> makePool(SpanRecorder &Rec) {
  std::vector<Function> Raw;
  {
    ScopedSpan S(Rec, "suites.generate", 0);
    Rng R(0x73657276ULL);
    for (unsigned I = 0; I < kPoolSize; ++I) {
      ProgramGenOptions Shape;
      Shape.NumVars = 26 + unsigned(R.nextBelow(14));
      Shape.NumParams = 5;
      Shape.MaxBlocks = 48 + unsigned(R.nextBelow(25));
      Shape.MaxNesting = 3;
      Shape.ExprsPerBlockMax = 6;
      Shape.LoopProb = 0.28;
      Shape.IfProb = 0.40;
      Function F = generateFunction(R, Shape, "m" + std::to_string(I));
      DominatorTree Dom(F);
      LoopInfo Loops(F, Dom);
      Loops.annotate(F);
      Raw.push_back(std::move(F));
    }
  }
  std::vector<PoolFn> Pool;
  for (const Function &F : Raw) {
    std::optional<SsaConversion> Ssa;
    {
      ScopedSpan S(Rec, span::Ssa, 0);
      Ssa.emplace(convertToSsa(F));
    }
    Function &G = Ssa->Ssa;
    BlockId Deepest = 0;
    for (BlockId B = 0; B < G.numBlocks(); ++B)
      if (G.block(B).LoopDepth > G.block(Deepest).LoopDepth)
        Deepest = B;
    PoolFn P;
    P.Freq = G.block(Deepest).Frequency;
    const Weight Sentinel = 7777777777777LL;
    G.block(Deepest).Frequency = Sentinel;
    std::string Text = G.toString();
    const std::string Key = "freq=", Mark = Key + std::to_string(Sentinel);
    size_t At = Text.find(Mark);
    if (At == std::string::npos)
      throw std::runtime_error("block frequency missing from printed IR");
    P.Prefix = Text.substr(0, At + Key.size());
    P.Suffix = Text.substr(At + Mark.size());
    Pool.push_back(std::move(P));
  }
  return Pool;
}

ServiceRequest menuRequest(unsigned Item) {
  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::Allocate;
  Req.Suites = {kMenuSuite};
  Req.Regs = {kMenuFirstRegs + Item};
  return Req;
}

ServiceRequest submitRequest(const std::string &Ir, const std::string &Base) {
  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::SubmitIr;
  Req.IrText = Ir;
  Req.Regs = {kSubmitRegs};
  Req.Base = Base;
  return Req;
}

std::string payloadOf(const Request &R, const std::vector<PoolFn> &Pool,
                      bool Trace) {
  ServiceRequest Req =
      R.K == Kind::Hit
          ? menuRequest(R.Item)
          : submitRequest(Pool[R.Item].text(R.Edit),
                          R.K == Kind::Delta ? Pool[R.Item].baseKey() : "");
  Req.Trace = Trace;
  return R.K == Kind::Hit ? Client::makeAllocateRequest(Req)
                          : Client::makeSubmitIrRequest(Req);
}

/// The seeded request stream: hit or submit drawn by kHitShare, menu items
/// drawn uniformly.  Submits walk the pool round-robin, a miss and then a
/// delta per function, so both kinds solve the same functions equally
/// often and each base is touched often enough to stay in the shard's
/// bounded base registry.
class RequestStream {
public:
  explicit RequestStream(uint64_t Seed) : R(Seed * 0x2545f4914f6cdd1dULL + 7) {}
  Request next() {
    Request Out;
    if (R.nextDouble() < kHitShare) {
      Out.K = Kind::Hit;
      Out.Item = unsigned(R.nextBelow(kMenuSize));
      return Out;
    }
    Out.K = Submits % 2 ? Kind::Delta : Kind::Miss;
    Out.Item = unsigned(Submits / 2 % kPoolSize);
    Out.Edit = ++Submits;
    return Out;
  }

private:
  Rng R;
  uint64_t Submits = 0;
};

/// A direct, fresh BatchDriver run of the jobs the server builds for a
/// request, serialized the way the server serializes its response.
std::string directResponse(const Request &R, const std::vector<PoolFn> &Pool,
                           const std::map<std::string, Suite> &Suites) {
  std::vector<BatchJob> Jobs(1);
  BatchJob &Job = Jobs[0];
  Suite Submitted;
  if (R.K == Kind::Hit) {
    const Suite &S = Suites.at(kMenuSuite);
    Job.SuiteName = S.Name;
    Job.SuiteData = &S;
    Job.NumRegisters = kMenuFirstRegs + R.Item;
  } else {
    ParsedFunction Parsed = parseFunction(Pool[R.Item].text(R.Edit));
    if (!Parsed.Ok)
      return "unparsable request IR: " + Parsed.Error;
    Submitted.Name = "submitted";
    SuiteProgram Prog;
    Prog.Name = Parsed.F.name();
    Prog.Functions.push_back(std::move(Parsed.F));
    Submitted.Programs.push_back(std::move(Prog));
    Job.SuiteName = Submitted.Name;
    Job.SuiteData = &Submitted;
    Job.NumRegisters = kSubmitRegs;
  }
  Job.Target = ST231;
  BatchDriver Driver(1);
  DriverReport Report = Driver.run(Jobs, /*CacheTransparent=*/true);
  return driverReportToJson(Report, /*IncludeTiming=*/false,
                            /*IncludeTasks=*/false)
             .dump(2) +
         "\n";
}

/// One multiplexed connection of the closed-loop client.
struct Conn {
  SocketFd Fd;
  bool Busy = false;
  std::string In;
  size_t Record = 0;
  double SendS = 0;
};

struct Record {
  Request Req;
  unsigned Lane = 0; ///< Connection the request went out on.
  double SendS = 0;
  double LatencyMs = 0;
  std::string Response;
};

bool callSync(Conn &C, const std::string &Payload, std::string &Response) {
  std::string Frame = encodeFrame(Payload);
  return sendAll(C.Fd.fd(), Frame.data(), Frame.size()) &&
         readFrame(C.Fd.fd(), Response) == FrameStatus::Ok;
}

struct ServeSession {
  std::vector<PoolFn> Pool;
  std::unique_ptr<Server> S;
  std::vector<Conn> Conns;
};

/// Set-up: pool generation, server start and connections.  \p Tag keeps
/// the socket of a second session apart from the first.
ServeSession setUp(const RunOptions &Opt, SpanRecorder &Rec,
                   const std::string &Tag = "") {
  ServeSession Out;
  Out.Pool = makePool(Rec);
  ServerOptions SO;
  SO.UnixPath = Opt.OutDir + "/serve-" + std::to_string(::getpid()) + Tag +
                ".sock";
  SO.Threads = 1;
  SO.Shards = kShards;
  Out.S = std::make_unique<Server>(SO);
  std::string Error;
  if (!Out.S->start(&Error))
    throw std::runtime_error("server did not start: " + Error);
  for (unsigned I = 0; I < kConnections; ++I) {
    Conn C;
    C.Fd = connectUnix(SO.UnixPath, &Error);
    if (!C.Fd.valid())
      throw std::runtime_error("cannot connect: " + Error);
    Out.Conns.push_back(std::move(C));
  }
  return Out;
}

/// Warm-up, after set-up and outside its time: every menu item solved once
/// and every pool function registered as a delta base.
void warmUp(ServeSession &Sess, Tally &Ops) {
  std::string Response;
  auto warm = [&](const std::string &Payload) {
    if (!callSync(Sess.Conns[0], Payload, Response))
      Ops.fail("warm-up request failed in transport");
    else if (Client::isErrorResponse(Response))
      Ops.fail("warm-up request refused: " + Response);
  };
  for (unsigned I = 0; I < kMenuSize; ++I)
    warm(Client::makeAllocateRequest(menuRequest(I)));
  for (unsigned I = 0; I < kPoolSize; ++I)
    warm(Client::makeSubmitIrRequest(submitRequest(Sess.Pool[I].text(0), "")));
}

/// Sends requests from \p Stream on every idle connection until
/// \p Seconds pass and every kind has enough samples for its p99 (or
/// three times \p Seconds pass), then waits for the ones in flight.
/// When \p Pause is set, every kPauseSeconds it stops sending, waits for
/// the requests in flight and calls it.  Returns the window's wall time.
double drive(ServeSession &Sess, RequestStream &Stream, double Seconds,
             bool Trace, std::vector<Record> &Records, Tally &Ops,
             const std::function<void()> &Pause = nullptr) {
  const double Start = nowSeconds(), Deadline = Start + Seconds;
  double NextPause = Start + kPauseSeconds;
  size_t PerKind[3] = {0, 0, 0};
  auto enough = [&](double Now) {
    if (Now >= Start + 3 * Seconds)
      return true;
    return Now >= Deadline &&
           percentileReportable(PerKind[int(Kind::Hit)], 0.99) &&
           percentileReportable(PerKind[int(Kind::Miss)], 0.99) &&
           percentileReportable(PerKind[int(Kind::Delta)], 0.50);
  };
  double Last = Start;
  std::vector<pollfd> Fds;
  std::vector<unsigned> FdConn;
  char Buf[1 << 16];
  for (;;) {
    double Now = nowSeconds();
    const bool Pausing = Pause && Now >= NextPause;
    if (Pausing && std::none_of(Sess.Conns.begin(), Sess.Conns.end(),
                                [](const Conn &C) { return C.Busy; })) {
      Pause();
      NextPause = nowSeconds() + kPauseSeconds;
      continue;
    }
    for (unsigned I = 0; I < Sess.Conns.size(); ++I) {
      Conn &C = Sess.Conns[I];
      if (C.Busy || !C.Fd.valid() || Pausing || enough(Now))
        continue;
      Record Rec;
      Rec.Req = Stream.next();
      Rec.Lane = I;
      std::string Frame = encodeFrame(payloadOf(Rec.Req, Sess.Pool, Trace));
      Rec.SendS = C.SendS = nowSeconds();
      if (!sendAll(C.Fd.fd(), Frame.data(), Frame.size())) {
        Ops.fail("request send failed");
        C.Fd.reset();
        continue;
      }
      C.Busy = true;
      C.In.clear();
      C.Record = Records.size();
      Records.push_back(std::move(Rec));
    }
    Fds.clear();
    FdConn.clear();
    for (unsigned I = 0; I < Sess.Conns.size(); ++I)
      if (Sess.Conns[I].Busy) {
        Fds.push_back({Sess.Conns[I].Fd.fd(), POLLIN, 0});
        FdConn.push_back(I);
      }
    if (Fds.empty())
      break;
    if (::poll(Fds.data(), Fds.size(), 5000) <= 0) {
      Ops.fail("no response within 5 s");
      for (unsigned I : FdConn)
        Sess.Conns[I].Fd.reset(), Sess.Conns[I].Busy = false;
      continue;
    }
    for (size_t K = 0; K < Fds.size(); ++K) {
      if (!(Fds[K].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Conn &C = Sess.Conns[FdConn[K]];
      ssize_t Got = ::recv(C.Fd.fd(), Buf, sizeof Buf, 0);
      if (Got <= 0) {
        Ops.fail("connection closed mid-request");
        C.Fd.reset();
        C.Busy = false;
        continue;
      }
      C.In.append(Buf, size_t(Got));
      size_t Len = 0;
      if (C.In.size() < kFrameHeaderBytes ||
          decodeFrameHeader(
              reinterpret_cast<const unsigned char *>(C.In.data()),
              kDefaultMaxFrameBytes, Len) != FrameStatus::Ok ||
          C.In.size() < kFrameHeaderBytes + Len)
        continue;
      Last = nowSeconds();
      Record &Rec = Records[C.Record];
      Rec.LatencyMs = (Last - C.SendS) * 1e3;
      Rec.Response = C.In.substr(kFrameHeaderBytes, Len);
      ++PerKind[int(Rec.Req.K)];
      C.Busy = false;
    }
  }
  return Last - Start;
}

/// One `stats` snapshot over the wire (connection 0 must be idle).
JsonValue statsSnapshot(ServeSession &Sess, Tally &Ops) {
  std::string Response;
  if (!callSync(Sess.Conns[0], R"({"type": "stats"})", Response)) {
    Ops.fail("stats request failed");
    return JsonValue::object();
  }
  JsonParseResult Parsed = parseJson(Response);
  return Parsed.Ok ? Parsed.Value : JsonValue::object();
}

/// Doc[Outer][Inner] as a number (Doc[Outer] when Inner is null); 0 when
/// absent.
double number(const JsonValue &Doc, const char *Outer,
              const char *Inner = nullptr) {
  const JsonValue *V = Doc.find(Outer);
  if (V && Inner)
    V = V->find(Inner);
  return V ? V->numberValue() : 0;
}

/// Checks every record against a direct driver run (in parallel, after
/// the window) and counts it.
void verify(const std::vector<Record> &Records,
            const std::vector<PoolFn> &Pool,
            const std::map<std::string, Suite> &Suites,
            const std::vector<std::string> &MenuExpected, Tally &Ops) {
  std::vector<std::string> Errors(Records.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Records.size();) {
      const Record &Rec = Records[I];
      if (Rec.Response.empty()) {
        Errors[I] = "no response";
        continue;
      }
      if (Client::isErrorResponse(Rec.Response)) {
        Errors[I] = "server error: " + Rec.Response.substr(0, 200);
        continue;
      }
      Errors[I] = checkResponse(Rec.Response,
                                Rec.Req.K == Kind::Hit
                                    ? MenuExpected[Rec.Req.Item]
                                    : directResponse(Rec.Req, Pool, Suites));
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 1; T < hardwareThreads(); ++T)
    Threads.emplace_back(Worker);
  Worker();
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : Errors)
    Ops.check(E);
}

/// Latencies grouped by the whole one-second slot of the window in which
/// each request completed; the partial last slot is dropped.  Figures
/// taken per slot and reported as the median over slots move by one slot
/// when the host has a slow second, not by the run.
std::vector<std::vector<double>> slots(const std::vector<Record> &Records) {
  if (Records.empty())
    return {};
  double Start = Records.front().SendS, End = Start;
  for (const Record &R : Records)
    End = std::max(End, R.SendS + R.LatencyMs / 1e3);
  std::vector<std::vector<double>> Out(size_t(End - Start));
  for (const Record &R : Records) {
    size_t Slot = size_t(R.SendS + R.LatencyMs / 1e3 - Start);
    if (Slot < Out.size())
      Out[Slot].push_back(R.LatencyMs);
  }
  return Out;
}

double medianSlotThroughput(const std::vector<Record> &Records) {
  std::vector<double> PerSlot;
  for (const std::vector<double> &Slot : slots(Records))
    PerSlot.push_back(double(Slot.size()));
  return median(PerSlot);
}

double medianSlotP50(const std::vector<Record> &Records) {
  std::vector<double> PerSlot;
  for (const std::vector<double> &Slot : slots(Records))
    if (percentileReportable(Slot.size(), 0.50))
      PerSlot.push_back(percentile(Slot, 0.50));
  return median(PerSlot);
}

double latencyOf(const std::vector<Record> &Records, int K, double Q,
                 uint64_t &Samples) {
  std::vector<double> Ms;
  for (const Record &R : Records)
    if (K < 0 || int(R.Req.K) == K)
      Ms.push_back(R.LatencyMs);
  Samples = Ms.size();
  return percentile(std::move(Ms), Q);
}

void latencyMetrics(const std::vector<Record> &Records, const char *Prefix,
                    std::map<std::string, Metric> &M) {
  auto put = [&](const std::string &Name, int K, double Q) {
    uint64_t N = 0;
    double V = latencyOf(Records, K, Q, N);
    M[Prefix + Name] = {V, "ms", N};
  };
  put("hit_ms_p50", int(Kind::Hit), 0.50);
  put("hit_ms_p99", int(Kind::Hit), 0.99);
  put("miss_ms_p50", int(Kind::Miss), 0.50);
  put("miss_ms_p99", int(Kind::Miss), 0.99);
  put("delta_ms_p50", int(Kind::Delta), 0.50);
}

std::map<std::string, Suite> menuSuites() {
  std::map<std::string, Suite> Suites;
  Suites.emplace(kMenuSuite, makeSuite(kMenuSuite));
  return Suites;
}

void stop(ServeSession &Sess) {
  Sess.Conns.clear();
  if (Sess.S) {
    Sess.S->requestStop();
    Sess.S->wait();
  }
}

RunResult measure(const RunOptions &Opt) {
  RunResult Out;
  SpanRecorder Untraced(false);
  std::vector<double> SetupS;
  auto timedSetUp = [&](const std::string &Tag) {
    double T0 = nowSeconds();
    ServeSession S = setUp(Opt, Untraced, Tag);
    SetupS.push_back(nowSeconds() - T0);
    return S;
  };
  // Set-up is timed again in the window's pauses, on a throwaway session,
  // so its samples spread over the run like the slots do; the host's
  // speed drifts too much for samples taken all at the start.
  auto probe = [&] {
    for (unsigned K = 0; K < kSetupsPerPause; ++K) {
      ServeSession P = timedSetUp("-probe");
      stop(P);
    }
  };
  ServeSession Sess = timedSetUp("");
  warmUp(Sess, Out.Ops);
  RequestStream Stream(Opt.Seed);
  std::vector<Record> Records;
  drive(Sess, Stream, Opt.Seconds, false, Records, Out.Ops, probe);
  while (SetupS.size() < size_t(kSetupRepeats))
    probe();
  stop(Sess);
  // Read before the checks, which solve on every processor at once.
  const double PeakRssMb = peakRssMb();

  std::map<std::string, Suite> Suites = menuSuites();
  std::vector<std::string> MenuExpected;
  Weight SpillCost = 0;
  uint64_t SpillOps = 0, Fit = 0, Functions = 0;
  for (unsigned I = 0; I < kMenuSize; ++I) {
    Request R;
    R.Item = I;
    MenuExpected.push_back(directResponse(R, Sess.Pool, Suites));
    JsonParseResult Doc = parseJson(MenuExpected.back());
    if (const JsonValue *Jobs = Doc.Ok ? Doc.Value.find("jobs") : nullptr)
      for (const JsonValue &Job : Jobs->elements()) {
        SpillCost += Weight(number(Job, "total_spill_cost"));
        SpillOps += uint64_t(number(Job, "loads") + number(Job, "stores"));
        Fit += uint64_t(number(Job, "functions_fit"));
        Functions += uint64_t(number(Job, "functions"));
      }
  }
  verify(Records, Sess.Pool, Suites, MenuExpected, Out.Ops);

  auto &M = Out.Metrics;
  uint64_t N = 0;
  M["setup_s"] = {median(SetupS), "s", SetupS.size()};
  M["throughput_per_s"] = {medianSlotThroughput(Records), "1/s", 0};
  M["latency_ms_p99"] = {latencyOf(Records, -1, 0.99, N), "ms", N};
  M["latency_ms_p50"] = {medianSlotP50(Records), "ms", N};
  latencyMetrics(Records, "", M);
  M["peak_rss_mb"] = {PeakRssMb, "MB", 0};
  M["spill_cost"] = {double(SpillCost), "cost", 0};
  M["spill_ops"] = {double(SpillOps), "count", 0};
  M["fit_frac"] = {double(Fit) / double(Functions), "fraction", 0};
  M["error_rate"] = {Out.Ops.errorRate(), "fraction", Out.Ops.attempted()};
  return Out;
}

/// Spans echoed by the server for one traced request, by name.
std::map<std::string, double> echoedSpans(const JsonValue &Doc) {
  std::map<std::string, double> Out;
  const JsonValue *Trace = Doc.find("trace");
  const JsonValue *Spans = Trace ? Trace->find("spans") : nullptr;
  if (Spans)
    for (const JsonValue &S : Spans->elements())
      if (const JsonValue *Name = S.find("name"))
        if (const JsonValue *Dur = S.find("dur_ms"))
          Out[Name->stringValue()] += Dur->numberValue();
  return Out;
}

RunResult traced(const RunOptions &Opt) {
  RunResult Out;
  SpanRecorder Setup(true);
  ServeSession Sess = setUp(Opt, Setup);
  warmUp(Sess, Out.Ops);
  RequestStream Stream(Opt.Seed);
  std::vector<Record> Off, On;
  double OffS = drive(Sess, Stream, Opt.Seconds / 2, false, Off, Out.Ops);
  JsonValue Before = statsSnapshot(Sess, Out.Ops);
  double OnS = drive(Sess, Stream, Opt.Seconds / 2, true, On, Out.Ops);
  JsonValue After = statsSnapshot(Sess, Out.Ops);
  stop(Sess);

  // Client-side request spans with the server's echoed spans under them,
  // laid end to end from the send time (the server's clock is not ours).
  SpanRecorder Rec(true);
  std::vector<double> QueueMs, DispatchMs, DriverMs, FlushMs;
  double ClientSum = 0, QueueSum = 0, DispatchSum = 0, DriverSum = 0,
         FlushSum = 0;
  uint64_t DriverTasks = 0;
  for (size_t I = 0; I < On.size(); ++I) {
    const Record &R = On[I];
    JsonParseResult Doc = parseJson(R.Response);
    if (!Doc.Ok)
      continue;
    std::map<std::string, double> S = echoedSpans(Doc.Value);
    double SendUs = R.SendS * 1e6;
    int Root = Rec.add("service.request", I, R.Lane, -1, SendUs,
                       SendUs + R.LatencyMs * 1e3);
    double At = SendUs, Server = 0;
    static const std::pair<const char *, const char *> Echoed[] = {
        {"accept", "service.accept"},
        {"queue_wait", "service.queue_wait"},
        {"dispatch", "service.dispatch"},
        {"driver", "service.driver"}};
    for (const auto &[Wire, Name] : Echoed) {
      double Ms = S.count(Wire) ? S[Wire] : 0;
      Rec.add(Name, I, R.Lane, Root, At, At + Ms * 1e3);
      At += Ms * 1e3;
      Server += Ms;
    }
    QueueMs.push_back(S["queue_wait"]);
    DispatchMs.push_back(S["dispatch"]);
    if (S.count("driver")) {
      DriverMs.push_back(S["driver"]);
      DriverSum += S["driver"];
    }
    FlushMs.push_back(std::max(0.0, R.LatencyMs - Server));
    ClientSum += R.LatencyMs;
    QueueSum += QueueMs.back();
    DispatchSum += DispatchMs.back();
    FlushSum += FlushMs.back();
    if (const JsonValue *Jobs = Doc.Value.find("jobs"))
      for (const JsonValue &Job : Jobs->elements())
        DriverTasks += uint64_t(number(Job, "functions"));
  }

  std::map<std::string, Suite> Suites = menuSuites();
  std::vector<std::string> MenuExpected;
  for (unsigned I = 0; I < kMenuSize; ++I) {
    Request R;
    R.Item = I;
    MenuExpected.push_back(directResponse(R, Sess.Pool, Suites));
  }
  verify(Off, Sess.Pool, Suites, MenuExpected, Out.Ops);
  verify(On, Sess.Pool, Suites, MenuExpected, Out.Ops);

  // The solver layers of this workload: a replay of the first submitted
  // functions, checked against runAllocationPipeline and the independent
  // assignment check.
  SpanRecorder Solver(true);
  SolverWorkspace WS;
  LayerCounts Counts;
  const std::vector<unsigned> Budgets =
      resolveClassBudgets(ST231, kSubmitRegs, {});
  unsigned Replayed = 0;
  for (const Record &R : On) {
    if (R.Req.K == Kind::Hit || Replayed == kReplaySample)
      continue;
    ParsedFunction Parsed = parseFunction(Sess.Pool[R.Req.Item].text(R.Req.Edit));
    if (!Parsed.Ok) {
      Out.Ops.fail("unparsable request IR");
      continue;
    }
    PipelineResult Got;
    {
      ScopedSpan Task(Solver, span::Task, Replayed);
      Got = replayPipeline(Parsed.F, ST231, Budgets, PipelineOptions(), WS,
                           Solver, Replayed, Counts);
    }
    PipelineResult Want = runAllocationPipeline(Parsed.F, ST231, Budgets);
    std::string Error = checkAssignment(Want.Rewritten, Want.Regs, Budgets,
                                        Want.Fits);
    if (Error.empty())
      Error = diffResults(ResultDigest::of(Got), ResultDigest::of(Want));
    Out.Ops.check(Error);
    ++Replayed;
  }

  std::vector<Span> All = Rec.spans();
  std::string TraceError;
  if (!writeChromeTrace(Opt.OutDir + "/trace-serve-" +
                            std::to_string(Opt.Seed) + ".json",
                        All, &TraceError))
    std::fprintf(stderr, "perfbench: %s\n", TraceError.c_str());

  auto SetupTotals = totalsByName(Setup.spans());
  auto Totals = totalsByName(Solver.spans());
  auto &M = Out.Metrics;
  auto selfMs = [&](const char *Name) {
    return Metric{Totals[Name].SelfMs, "ms", 0};
  };
  auto count = [](double N) { return Metric{N, "count", 0}; };
  auto p50 = [](std::vector<double> V) {
    size_t N = V.size();
    return Metric{percentile(std::move(V), 0.5), "ms", N};
  };
  M["suites.generate_ms"] = {SetupTotals["suites.generate"].SelfMs, "ms", 0};
  M["ir.ssa_ms"] = {SetupTotals[span::Ssa].SelfMs, "ms", 0};
  M["ir.liveness_ms"] = selfMs(span::Liveness);
  M["ir.liveness_calls"] = count(double(Counts.LivenessCalls));
  M["ir.spill_costs_ms"] = selfMs(span::SpillCosts);
  M["ir.interference_ms"] = selfMs(span::Interference);
  M["ir.interference_edges"] = count(double(Counts.InterferenceEdges));
  M["ir.live_intervals_ms"] = selfMs(span::LiveIntervals);
  M["ir.spill_rewrite_ms"] = selfMs(span::SpillRewrite);
  M["ir.spill_instrs"] = count(double(Counts.SpillInstrs));
  M["graph.chordal_ms"] = selfMs(span::Chordal);
  M["graph.vertices"] = count(double(Counts.Vertices));
  M["graph.cliques"] = count(double(Counts.Cliques));
  M["core.allocate_ms"] = selfMs(span::Allocate);
  M["core.allocate_calls"] = count(double(Counts.AllocateCalls));
  M["core.assign_ms"] = selfMs(span::Assign);
  M["alloc.pipeline_ms"] = {Totals[span::Pipeline].TotalMs, "ms", 0};
  M["alloc.self_ms"] = selfMs(span::Pipeline);
  M["alloc.rounds"] = count(double(Counts.Rounds));
  M["alloc.builds"] = count(double(Counts.Builds));

  double Hits = number(After, "cache", "hits") - number(Before, "cache", "hits");
  double Lookups = Hits + number(After, "cache", "misses") -
                   number(Before, "cache", "misses");
  double DHits = number(After, "delta", "hits") - number(Before, "delta", "hits");
  double DLookups = DHits + number(After, "delta", "fallbacks") -
                    number(Before, "delta", "fallbacks");
  double UptimeMs = number(After, "uptime_ms") - number(Before, "uptime_ms");
  double BusyMax = 0;
  const JsonValue *ShA = Before.find("shards"), *ShB = After.find("shards");
  for (size_t I = 0; ShA && ShB && I < ShB->size() && I < ShA->size(); ++I)
    BusyMax = std::max(BusyMax, (number(ShB->at(I), "busy_ms") -
                                 number(ShA->at(I), "busy_ms")) /
                                    UptimeMs);
  M["driver.run_ms"] = {DriverSum, "ms", DriverMs.size()};
  M["driver.tasks"] = count(double(DriverTasks));
  M["driver.pool_busy_frac"] = {DriverSum / (kShards * OnS * 1e3), "fraction",
                                0};
  M["driver.cache_hit_ratio"] = {Lookups > 0 ? Hits / Lookups : 0, "fraction",
                                 0};
  M["driver.cache_lookups"] = count(Lookups);
  M["service.queue_wait_ms_p50"] = p50(QueueMs);
  M["service.dispatch_ms_p50"] = p50(DispatchMs);
  M["service.driver_ms_p50"] = p50(DriverMs);
  M["service.flush_net_ms_p50"] = p50(FlushMs);
  // The same spans as shares of all client-observed time.
  auto share = [&](double Ms) {
    return Metric{ClientSum > 0 ? Ms / ClientSum : 0, "fraction", On.size()};
  };
  M["service.queue_wait_frac"] = share(QueueSum);
  M["service.dispatch_frac"] = share(DispatchSum);
  M["service.driver_frac"] = share(DriverSum);
  M["service.flush_net_frac"] = share(FlushSum);
  M["service.shard_busy_frac_max"] = {BusyMax, "fraction", 0};
  M["service.rejected"] = count(number(After, "requests", "rejected") -
                                number(Before, "requests", "rejected"));
  M["service.cache_hit_ratio"] = M["driver.cache_hit_ratio"];
  M["service.cache_lookups"] = count(Lookups);
  M["service.delta_hit_ratio"] = {DLookups > 0 ? DHits / DLookups : 0,
                                  "fraction", 0};
  M["service.delta_lookups"] = count(DLookups);
  latencyMetrics(On, "service.", M);
  // What the delta path buys: miss p50 over delta p50.  Both kinds solve
  // the same pool functions equally often, so only the path differs.
  M["service.delta_speedup"] = {M["service.miss_ms_p50"].Value /
                                    M["service.delta_ms_p50"].Value,
                                "x", M["service.delta_ms_p50"].Samples};
  M["trace.coverage_frac"] = {coverageOf(Solver.spans(), span::Pipeline),
                              "fraction", 0};
  M["trace.overhead_frac"] = {
      1 - (double(On.size()) / OnS) / (double(Off.size()) / OffS), "fraction",
      0};
  return Out;
}

} // namespace

RunResult perfbench::runServe(const RunOptions &Opt) {
  return Opt.Trace ? traced(Opt) : measure(Opt);
}
