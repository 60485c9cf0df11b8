//===- service/Server.cpp - Long-running allocation server -----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "alloc/Allocator.h"
#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "ir/Parser.h"
#include "obs/EventLog.h"
#include "obs/Metrics.h"
#include "obs/RequestTrace.h"
#include "obs/Trace.h"
#include "service/DiskCache.h"
#include "support/Socket.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string_view>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

using namespace layra;

namespace {

/// Event-loop tick: the latency bound on noticing a stop request or a
/// write-timeout expiry while no descriptor fires.
constexpr int kTickMs = 100;
/// Response-write progress bound: a connection with queued response bytes
/// whose peer accepts none of them for this long is dropped.  Without a
/// bound a client that stops reading would pin its buffered responses
/// forever -- and wedge the graceful drain.
constexpr int kStalledWriteMs = 10000;
/// Bytes read per recv() into a connection's input buffer.
constexpr size_t kReadChunk = 64u << 10;

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

const char *requestKindName(ServiceRequest::Kind K) {
  switch (K) {
  case ServiceRequest::Kind::Ping:
    return "ping";
  case ServiceRequest::Kind::Stats:
    return "stats";
  case ServiceRequest::Kind::Allocate:
    return "allocate";
  case ServiceRequest::Kind::SubmitIr:
    return "submit_ir";
  }
  return "unknown";
}

/// One readiness event from the poller, normalized across backends.
/// Readable carries only data readiness; Error covers hangups and error
/// conditions (reported even when a descriptor's interest mask is empty,
/// so a window-paused connection whose peer vanished still gets noticed).
struct PollEvent {
  int Fd = -1;
  bool Readable = false;
  bool Writable = false;
  bool Error = false;
};

#ifdef __linux__

/// Level-triggered epoll wrapper.  Level-triggered on purpose: the loop
/// may stop reading a connection mid-burst (in-flight window full) and
/// must get re-notified for the bytes it left in the kernel buffer.
class Poller {
public:
  Poller() : Ep(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~Poller() {
    if (Ep >= 0)
      ::close(Ep);
  }
  Poller(const Poller &) = delete;
  Poller &operator=(const Poller &) = delete;

  bool valid() const { return Ep >= 0; }
  void add(int Fd, bool R, bool W) { ctl(EPOLL_CTL_ADD, Fd, R, W); }
  void set(int Fd, bool R, bool W) { ctl(EPOLL_CTL_MOD, Fd, R, W); }
  void remove(int Fd) { ::epoll_ctl(Ep, EPOLL_CTL_DEL, Fd, nullptr); }

  void wait(std::vector<PollEvent> &Out, int TimeoutMs) {
    Out.clear();
    epoll_event Evs[64];
    int N = ::epoll_wait(Ep, Evs, 64, TimeoutMs);
    for (int I = 0; I < N; ++I) {
      PollEvent E;
      E.Fd = Evs[I].data.fd;
      E.Readable = (Evs[I].events & EPOLLIN) != 0;
      E.Writable = (Evs[I].events & EPOLLOUT) != 0;
      E.Error = (Evs[I].events & (EPOLLERR | EPOLLHUP)) != 0;
      Out.push_back(E);
    }
  }

private:
  void ctl(int Op, int Fd, bool R, bool W) {
    epoll_event Ev{};
    Ev.events = (R ? unsigned(EPOLLIN) : 0u) | (W ? unsigned(EPOLLOUT) : 0u);
    Ev.data.fd = Fd;
    ::epoll_ctl(Ep, Op, Fd, &Ev);
  }
  int Ep = -1;
};

#else

/// poll(2) fallback with the same level-triggered semantics: the interest
/// map is rebuilt into a pollfd array per wait.  Fine at the connection
/// counts this server targets off Linux.
class Poller {
public:
  bool valid() const { return true; }
  void add(int Fd, bool R, bool W) { Interest[Fd] = mask(R, W); }
  void set(int Fd, bool R, bool W) { Interest[Fd] = mask(R, W); }
  void remove(int Fd) { Interest.erase(Fd); }

  void wait(std::vector<PollEvent> &Out, int TimeoutMs) {
    Out.clear();
    std::vector<pollfd> Fds;
    Fds.reserve(Interest.size());
    for (const auto &E : Interest)
      Fds.push_back({E.first, E.second, 0});
    int N = ::poll(Fds.data(), nfds_t(Fds.size()), TimeoutMs);
    if (N <= 0)
      return;
    for (const pollfd &P : Fds) {
      if (!P.revents)
        continue;
      PollEvent E;
      E.Fd = P.fd;
      E.Readable = (P.revents & POLLIN) != 0;
      E.Writable = (P.revents & POLLOUT) != 0;
      E.Error = (P.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      Out.push_back(E);
    }
  }

private:
  static short mask(bool R, bool W) {
    return short((R ? POLLIN : 0) | (W ? POLLOUT : 0));
  }
  std::map<int, short> Interest;
};

#endif

/// One request's identity and observability state: built at parse time,
/// it travels through the shard queue, the completion channel and the
/// flush queue, and finalizes once the response is on the wire.
struct RequestRecord {
  uint64_t ConnId = 0;
  uint64_t Seq = 0;
  ServiceRequest::Kind Kind = ServiceRequest::Kind::Ping;
  /// Record RequestEnd / slow-log at flush time.  False for replies that
  /// never got a RequestStart (parse/framing errors, admission rejects).
  bool TrackEnd = false;
  /// Dequeue to response built.
  double ServiceMs = 0;
  /// Active when the client asked for a trace, the slow log could need
  /// the span tree, or the event ring wants request events with ids.
  obs::RequestTrace Trace;
};

/// A finished request on its way back to the IO loop.  Shard workers post
/// these; for requests the IO thread answers itself (ping/stats, parse
/// errors, rejects) one is sequenced directly without crossing threads.
struct Completion {
  RequestRecord Rec;
  std::string Response;
  /// Close the connection once this response is flushed (framing errors,
  /// connection-limit rejections).
  bool CloseAfter = false;
};

/// One request parked in a shard queue.
struct ShardJob {
  RequestRecord Rec;
  ServiceRequest Req;
};

/// Flush bookkeeping for one response sitting in a connection's output
/// buffer.  EndOffset is the connection's cumulative queued-byte count at
/// the end of this frame; once the flushed-byte count reaches it the
/// response is on the wire and the record finalizes.
struct FlushRecord {
  uint64_t EndOffset = 0;
  std::chrono::steady_clock::time_point FlushStartTime;
  RequestRecord Rec;
};

/// Per-connection state, owned and touched by the IO thread only.
struct IoConn {
  SocketFd Fd;
  uint64_t Id = 0;
  /// False for connections beyond the connection limit: they exist only
  /// to carry the rejection reply and never count as active.
  bool Admitted = false;

  //--- Read side. ---------------------------------------------------------
  /// Incremental frame assembly: bytes land here verbatim and requests are
  /// parsed in place as string_views -- no per-frame payload copy.  InPos
  /// marks consumed bytes; the buffer compacts once drained.
  std::string InBuf;
  size_t InPos = 0;
  /// No further socket reads (EOF, framing error, drain).
  bool ReadClosed = false;
  /// No further frame parsing (framing error poisoned the stream).
  bool ParseDead = false;

  //--- Request sequencing. ------------------------------------------------
  /// Per-connection sequence numbers keep responses in request order no
  /// matter which shard finishes first: NextSeq stamps requests at parse,
  /// NextFlushSeq is the next response allowed into the output buffer,
  /// Ready parks completions that finished out of order.
  uint64_t NextSeq = 0;
  uint64_t NextFlushSeq = 0;
  std::map<uint64_t, Completion> Ready;
  /// Requests parsed but not yet appended to the output buffer; the
  /// admission window pauses parsing while this reaches the bound.
  unsigned InFlight = 0;

  //--- Write side. --------------------------------------------------------
  std::string OutBuf;
  size_t OutPos = 0;
  bool CloseAfterFlush = false;
  uint64_t BytesQueuedTotal = 0;
  uint64_t BytesFlushedTotal = 0;
  std::deque<FlushRecord> Flushes;
  std::chrono::steady_clock::time_point LastWriteProgress;

  /// Cached poller interest, to skip redundant syscalls.
  bool IntRead = false;
  bool IntWrite = false;
};

/// One shared-nothing shard: a private driver (thread pool, workspaces,
/// LRU), a private suite cache, and a bounded queue its worker drains.
struct Shard {
  Shard(unsigned Index, unsigned Threads) : Index(Index), Driver(Threads) {}

  const unsigned Index;
  /// Worker-thread-private after start(); the disk cache underneath it is
  /// internally synchronized.
  BatchDriver Driver;
  /// Named suites generated once per shard; tiny (four suite names).
  std::map<std::string, Suite> SuiteCache;

  std::mutex QMutex;
  std::condition_variable QCv;
  std::deque<ShardJob> Queue; ///< QMutex.
  uint64_t QueueMaxDepth = 0; ///< QMutex.
  bool Drain = false;         ///< QMutex.
  std::thread Worker;

  /// Published statistics; the worker is the only writer.
  std::mutex StatMutex;
  uint64_t Requests = 0;       ///< StatMutex.
  double BusyMs = 0;           ///< StatMutex.
  DriverCacheCounters Cache;   ///< StatMutex.
};

double hitRate(const DriverCacheCounters &C) {
  double Classified = static_cast<double>(C.Hits + C.Misses);
  return Classified > 0 ? static_cast<double>(C.Hits) / Classified : 0.0;
}

/// The `cache` object of a stats payload, top-level and per shard alike.
JsonValue cacheJson(const DriverCacheCounters &C) {
  JsonValue Cache = JsonValue::object();
  Cache.set("entries", C.Entries);
  Cache.set("capacity", C.Capacity);
  Cache.set("hits", C.Hits);
  Cache.set("misses", C.Misses);
  Cache.set("evictions", C.Evictions);
  Cache.set("hit_rate", hitRate(C));
  return Cache;
}

} // namespace

std::string layra::makeStatsResponse(const ServerStats &S,
                                     const std::string &TraceId) {
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", kStatsSchema);
  Doc.set("protocol", kServeProtocolVersion);
  Doc.set("uptime_ms", S.UptimeMs);
  Doc.set("threads", S.Threads);
  JsonValue Requests = JsonValue::object();
  Requests.set("total", S.RequestsTotal);
  Requests.set("allocate", S.RequestsAllocate);
  Requests.set("submit_ir", S.RequestsSubmitIr);
  Requests.set("stats", S.RequestsStats);
  Requests.set("ping", S.RequestsPing);
  Requests.set("failed", S.RequestsFailed);
  Requests.set("rejected", S.RequestsRejected);
  Doc.set("requests", std::move(Requests));
  JsonValue Connections = JsonValue::object();
  Connections.set("accepted", S.ConnectionsAccepted);
  Connections.set("rejected", S.ConnectionsRejected);
  Connections.set("active", S.ConnectionsActive);
  Doc.set("connections", std::move(Connections));
  Doc.set("cache", cacheJson(S.Cache));
  JsonValue Queue = JsonValue::object();
  Queue.set("depth", S.QueueDepth);
  Queue.set("max_depth", S.QueueMaxDepth);
  Queue.set("capacity", S.QueueCapacity);
  Doc.set("queue", std::move(Queue));
  JsonValue Latency = JsonValue::object();
  Latency.set("service_ms_p50", S.ServiceMsP50);
  Latency.set("service_ms_p95", S.ServiceMsP95);
  Latency.set("service_ms_p99", S.ServiceMsP99);
  Latency.set("samples", S.ServiceSamples);
  // Cumulative histogram in le/count form (Prometheus-style): each entry
  // says "this many samples took at most le_ms".  Only occupied buckets are
  // serialized, so the array stays small however wide the geometry is.
  JsonValue Buckets = JsonValue::array();
  uint64_t Cumulative = 0;
  for (size_t I = 0; I < S.ServiceLatency.Buckets.size(); ++I) {
    if (S.ServiceLatency.Buckets[I] == 0)
      continue;
    Cumulative += S.ServiceLatency.Buckets[I];
    JsonValue Bucket = JsonValue::object();
    Bucket.set("le_ms", hist::ticksToMs(
                            double(hist::bucketHighTicks(unsigned(I)))));
    Bucket.set("count", Cumulative);
    Buckets.push(std::move(Bucket));
  }
  Latency.set("histogram", std::move(Buckets));
  Doc.set("latency", std::move(Latency));
  JsonValue Dispatcher = JsonValue::object();
  Dispatcher.set("busy_ms", S.DispatcherBusyMs);
  Dispatcher.set("utilization", S.DispatcherUtilization);
  Doc.set("dispatcher", std::move(Dispatcher));
  // v3 additions land after every v2 member (insertion-ordered object), so
  // a v2 consumer reading by name sees exactly what it always saw.
  JsonValue ShardsArr = JsonValue::array();
  for (size_t I = 0; I < S.PerShard.size(); ++I) {
    const ShardStats &E = S.PerShard[I];
    JsonValue Sh = JsonValue::object();
    Sh.set("shard", static_cast<uint64_t>(I));
    Sh.set("requests", E.Requests);
    Sh.set("cache", cacheJson(E.Cache));
    JsonValue SQ = JsonValue::object();
    SQ.set("depth", E.QueueDepth);
    SQ.set("max_depth", E.QueueMaxDepth);
    SQ.set("capacity", E.QueueCapacity);
    Sh.set("queue", std::move(SQ));
    Sh.set("busy_ms", E.BusyMs);
    ShardsArr.push(std::move(Sh));
  }
  Doc.set("shards", std::move(ShardsArr));
  // Without a disk cache the object keeps its members, all zero.
  DiskCacheStats D = S.Disk.value_or(DiskCacheStats());
  JsonValue Disk = JsonValue::object();
  Disk.set("enabled", S.Disk.has_value());
  Disk.set("entries", D.Entries);
  Disk.set("bytes", D.Bytes);
  Disk.set("hits", D.Hits);
  Disk.set("misses", D.Misses);
  Disk.set("writes", D.Writes);
  Disk.set("evictions", D.Evictions);
  // touch_failures (v4) lands after every v3 disk_cache member, so a v3
  // consumer reading by name sees exactly what it always saw.
  Disk.set("touch_failures", D.TouchFailures);
  Doc.set("disk_cache", std::move(Disk));
  // The trace echo, like everywhere else, lands after every existing
  // member so untraced stats responses keep their exact bytes.
  if (!TraceId.empty()) {
    JsonValue TraceDoc = JsonValue::object();
    TraceDoc.set("id", TraceId);
    Doc.set("trace", std::move(TraceDoc));
  }
  return Doc.dump(2) + "\n";
}

std::string layra::makeMetricsExposition(const ServerStats &S) {
  // Server-level stats rendered through the same exposition machinery as
  // the phase metrics, so one scrape sees one consistent format.
  MetricsSnapshot Snap;
  Snap.Counters = {
      {"layra.serve.requests.total", S.RequestsTotal},
      {"layra.serve.requests.allocate", S.RequestsAllocate},
      {"layra.serve.requests.submit_ir", S.RequestsSubmitIr},
      {"layra.serve.requests.stats", S.RequestsStats},
      {"layra.serve.requests.ping", S.RequestsPing},
      {"layra.serve.requests.failed", S.RequestsFailed},
      {"layra.serve.requests.rejected", S.RequestsRejected},
      {"layra.serve.connections.accepted", S.ConnectionsAccepted},
      {"layra.serve.connections.rejected", S.ConnectionsRejected},
      {"layra.serve.cache.hits", S.Cache.Hits},
      {"layra.serve.cache.misses", S.Cache.Misses},
      {"layra.serve.cache.evictions", S.Cache.Evictions},
  };
  Snap.Gauges = {
      {"layra.serve.uptime_ms", S.UptimeMs},
      {"layra.serve.threads", double(S.Threads)},
      {"layra.serve.connections.active", double(S.ConnectionsActive)},
      {"layra.serve.cache.entries", double(S.Cache.Entries)},
      {"layra.serve.cache.capacity", double(S.Cache.Capacity)},
      {"layra.serve.cache.hit_rate", hitRate(S.Cache)},
      {"layra.serve.queue.depth", double(S.QueueDepth)},
      {"layra.serve.queue.max_depth", double(S.QueueMaxDepth)},
      {"layra.serve.queue.capacity", double(S.QueueCapacity)},
      {"layra.serve.dispatcher.busy_ms", S.DispatcherBusyMs},
      {"layra.serve.dispatcher.utilization", S.DispatcherUtilization},
  };
  for (size_t I = 0; I < S.PerShard.size(); ++I) {
    const ShardStats &E = S.PerShard[I];
    std::string P = "layra.serve.shard." + std::to_string(I);
    Snap.Counters.push_back({P + ".requests", E.Requests});
    Snap.Counters.push_back({P + ".cache.hits", E.Cache.Hits});
    Snap.Counters.push_back({P + ".cache.misses", E.Cache.Misses});
    Snap.Gauges.push_back({P + ".queue.depth", double(E.QueueDepth)});
    Snap.Gauges.push_back({P + ".busy_ms", E.BusyMs});
  }
  if (const std::optional<DiskCacheStats> &D = S.Disk) {
    Snap.Counters.push_back({"layra.serve.disk.hits", D->Hits});
    Snap.Counters.push_back({"layra.serve.disk.misses", D->Misses});
    Snap.Counters.push_back({"layra.serve.disk.writes", D->Writes});
    Snap.Counters.push_back({"layra.serve.disk.evictions", D->Evictions});
    Snap.Counters.push_back(
        {"layra.serve.disk.touch_failures", D->TouchFailures});
    Snap.Gauges.push_back({"layra.serve.disk.entries", double(D->Entries)});
    Snap.Gauges.push_back({"layra.serve.disk.bytes", double(D->Bytes)});
  }
  if (S.ServiceLatency.Count > 0) {
    HistogramSnapshot Service = S.ServiceLatency;
    Service.Name = "layra.serve.service_ms";
    Snap.Histograms.push_back(std::move(Service));
  }
  return Snap.toPrometheusText() + obs::phaseMetrics().toPrometheusText();
}

//===----------------------------------------------------------------------===//
// Server::Impl
//===----------------------------------------------------------------------===//

struct Server::Impl {
  explicit Impl(ServerOptions Options) : Opt(std::move(Options)) {
    NumShards = std::max(1u, Opt.Shards);
    if (!Opt.DiskCacheDir.empty())
      Disk = std::make_unique<DiskCache>(Opt.DiskCacheDir,
                                         Opt.DiskCacheCapBytes);
    // Splitting one entry bound across shards keeps total memory at the
    // configured level; each shard holds at least one entry so a tiny
    // bound with many shards still caches something.
    size_t PerShardCap =
        Opt.CacheCapacity
            ? std::max<size_t>(1, Opt.CacheCapacity / NumShards)
            : 0;
    for (unsigned I = 0; I < NumShards; ++I) {
      auto Sh = std::make_unique<Shard>(I, Opt.Threads);
      Sh->Driver.setCacheCapacity(PerShardCap);
      if (Disk && Disk->valid())
        Sh->Driver.setOutcomeStore(Disk.get());
      Sh->Cache = Sh->Driver.pipelineCacheCounters();
      ShardList.push_back(std::move(Sh));
    }
  }

  ServerOptions Opt;
  unsigned NumShards = 1;
  std::vector<std::unique_ptr<Shard>> ShardList;
  /// Persistent outcome store shared by every shard driver (the store is
  /// internally synchronized); null when --disk-cache is off.
  std::unique_ptr<DiskCache> Disk;

  //--- Listeners, poller, threads. ----------------------------------------
  SocketFd TcpListener;
  SocketFd UnixListener;
  uint16_t BoundTcpPort = 0;
  /// Self-pipe: shard workers and requestStop() write a byte to pull the
  /// IO thread out of its poll wait.
  SocketFd WakeRead;
  SocketFd WakeWrite;
  Poller Poll;
  std::thread IoThread;
  std::atomic<bool> Started{false};
  std::atomic<bool> Stop{false};
  std::atomic<bool> Drained{false};

  //--- IO-thread-private connection state. --------------------------------
  std::map<uint64_t, std::unique_ptr<IoConn>> Conns;
  std::unordered_map<int, IoConn *> FdIndex;
  uint64_t NextConnId = 1;
  /// Jobs handed to shards whose completions have not come back yet; the
  /// drain waits for this to hit zero.
  uint64_t OutstandingShardJobs = 0;
  bool Draining = false;

  //--- Completion channel (shard workers -> IO thread). -------------------
  std::mutex CompMutex;
  std::vector<Completion> Completions;

  //--- Statistics. --------------------------------------------------------
  mutable std::mutex StatsMutex;
  ServerStats Counters; ///< Aggregate fields are filled on snapshot.
  /// Wall time the IO thread spent executing inline requests (ping/stats);
  /// shard busy time lives in each Shard (StatsMutex).
  double InlineBusyMs = 0;
  std::atomic<uint64_t> ActiveConns{0};
  /// Lifetime service-time histogram (log-linear buckets, obs/Metrics.h):
  /// wait-free record() from the IO thread and every shard worker, same
  /// bucket geometry layra-loadgen uses client-side.
  Histogram ServiceHist;
  std::chrono::steady_clock::time_point StartTime;

  //--- Request tracing (IO thread assigns ids at parse time). -------------
  uint64_t TraceSalt = 0;
  /// Sequence for server-generated ids; the IO thread is the only
  /// generator, so a plain counter suffices -- and ids stay in request
  /// arrival order however many shards execute them.
  uint64_t NextTraceSeq = 1;

  //--- Implementation. ----------------------------------------------------
  bool start(std::string *Error);
  void requestStop();
  void wait();
  void wakeIo();
  void ioLoop();
  void beginDrain();
  void acceptReady(SocketFd &Listener);
  IoConn *connByFd(int Fd);
  bool readInput(IoConn &C);
  void parseFrames(IoConn &C, bool IgnoreWindow = false);
  void processRequest(IoConn &C, std::string_view Payload);
  void sequenceCompletion(IoConn &C, Completion Comp);
  void appendResponse(IoConn &C, Completion &Comp);
  bool tryWrite(IoConn &C);
  void finalizeFlush(FlushRecord &R);
  void updateInterest(IoConn &C);
  bool maybeClose(IoConn &C);
  void destroyConn(IoConn &C);
  void drainCompletions();
  void postCompletion(Completion Comp);
  void checkWriteTimeouts();
  void shardLoop(Shard &Sh);
  std::string handleAllocate(Shard &Sh, const ServiceRequest &Req,
                             obs::RequestTrace &Trace);
  std::string handleSubmitIr(Shard &Sh, const ServiceRequest &Req,
                             obs::RequestTrace &Trace);
  std::string runJobs(Shard &Sh, const std::vector<BatchJob> &Jobs,
                      const ServiceRequest &Req,
                      uint64_t ServerStats::*Counter,
                      obs::RequestTrace &Trace);
  std::string failRequest(const std::string &Message,
                          const obs::RequestTrace &Trace = {});
  /// Target/allocator validation shared by allocate and submit_ir;
  /// returns a non-empty error-response payload on rejection.
  std::string validateCommon(const ServiceRequest &Req,
                             const obs::RequestTrace &Trace);
  /// One slow-request JSON line (full span tree) on Opt.SlowLog.
  void emitSlowRequest(const obs::RequestTrace &Trace, double TotalMs,
                       ServiceRequest::Kind K);
  ServerStats snapshotStats();
};

bool Server::Impl::start(std::string *Error) {
  if (Opt.UnixPath.empty() && !Opt.EnableTcp) {
    if (Error)
      *Error = "server needs a Unix socket path and/or TCP enabled";
    return false;
  }
  if (Disk && !Disk->valid()) {
    if (Error)
      *Error = Disk->error();
    return false;
  }
  if (!Poll.valid()) {
    if (Error)
      *Error = "cannot create the event poller";
    return false;
  }
  if (Opt.EnableTcp) {
    TcpListener = listenTcp(Opt.TcpHost, Opt.TcpPort, Error);
    if (!TcpListener.valid())
      return false;
    BoundTcpPort = boundTcpPort(TcpListener);
  }
  if (!Opt.UnixPath.empty()) {
    UnixListener = listenUnix(Opt.UnixPath, Error);
    if (!UnixListener.valid()) {
      TcpListener.reset();
      return false;
    }
  }
  int PipeFds[2];
  if (::pipe(PipeFds) != 0) {
    if (Error)
      *Error = "cannot create the wake pipe";
    TcpListener.reset();
    UnixListener.reset();
    if (!Opt.UnixPath.empty())
      ::unlink(Opt.UnixPath.c_str());
    return false;
  }
  WakeRead.reset(PipeFds[0]);
  WakeWrite.reset(PipeFds[1]);
  setNonBlocking(WakeRead.fd());
  setNonBlocking(WakeWrite.fd());
  raiseFdLimit(Opt.MaxConnections + 64);
  if (TcpListener.valid()) {
    setNonBlocking(TcpListener.fd());
    Poll.add(TcpListener.fd(), /*R=*/true, /*W=*/false);
  }
  if (UnixListener.valid()) {
    setNonBlocking(UnixListener.fd());
    Poll.add(UnixListener.fd(), /*R=*/true, /*W=*/false);
  }
  Poll.add(WakeRead.fd(), /*R=*/true, /*W=*/false);
  StartTime = std::chrono::steady_clock::now();
  TraceSalt = Opt.TraceIdSalt
                  ? Opt.TraceIdSalt
                  : static_cast<uint64_t>(StartTime.time_since_epoch().count());
  Counters.Threads = ShardList.front()->Driver.numThreads();
  Started = true;
  for (auto &Sh : ShardList) {
    Shard *S = Sh.get();
    S->Worker = std::thread([this, S] { shardLoop(*S); });
  }
  IoThread = std::thread([this] { ioLoop(); });
  return true;
}

void Server::Impl::requestStop() {
  if (Stop.exchange(true))
    return;
  obs::EventLog::global().record(obs::EventKind::DrainBegin);
  wakeIo();
}

void Server::Impl::wait() {
  if (!Started)
    return;
  if (IoThread.joinable())
    IoThread.join();
  for (auto &Sh : ShardList)
    if (Sh->Worker.joinable())
      Sh->Worker.join();
  // The wake pipe closes only after every writer (shard worker) is gone.
  WakeRead.reset();
  WakeWrite.reset();
  TcpListener.reset();
  UnixListener.reset();
  if (!Opt.UnixPath.empty())
    ::unlink(Opt.UnixPath.c_str());
  obs::EventLog::global().record(obs::EventKind::DrainEnd);
  Drained = true;
}

void Server::Impl::wakeIo() {
  if (!WakeWrite.valid())
    return;
  char B = 1;
  // A full pipe means a wakeup is already pending; nothing to do.
  ssize_t Ignored = ::write(WakeWrite.fd(), &B, 1);
  (void)Ignored;
}

void Server::Impl::postCompletion(Completion Comp) {
  {
    std::lock_guard<std::mutex> L(CompMutex);
    Completions.push_back(std::move(Comp));
  }
  wakeIo();
}

IoConn *Server::Impl::connByFd(int Fd) {
  auto It = FdIndex.find(Fd);
  return It == FdIndex.end() ? nullptr : It->second;
}

void Server::Impl::ioLoop() {
  std::vector<PollEvent> Events;
  while (true) {
    Poll.wait(Events, kTickMs);
    if (Stop && !Draining)
      beginDrain();
    for (const PollEvent &Ev : Events) {
      if (WakeRead.valid() && Ev.Fd == WakeRead.fd()) {
        char Buf[256];
        while (::read(WakeRead.fd(), Buf, sizeof Buf) > 0) {
        }
        continue;
      }
      if (TcpListener.valid() && Ev.Fd == TcpListener.fd()) {
        acceptReady(TcpListener);
        continue;
      }
      if (UnixListener.valid() && Ev.Fd == UnixListener.fd()) {
        acceptReady(UnixListener);
        continue;
      }
      IoConn *C = connByFd(Ev.Fd);
      if (!C)
        continue; // Closed earlier in this batch.
      // An error with no data left to read means the peer is gone in both
      // directions -- responses are undeliverable, so drop everything.
      if (Ev.Error && !Ev.Readable && !Ev.Writable) {
        destroyConn(*C);
        continue;
      }
      if (Ev.Writable && !tryWrite(*C))
        continue;
      if (Ev.Readable && !readInput(*C))
        continue;
      updateInterest(*C);
      maybeClose(*C);
    }
    drainCompletions();
    checkWriteTimeouts();
    if (Draining && OutstandingShardJobs == 0 && Conns.empty())
      return;
  }
}

void Server::Impl::beginDrain() {
  Draining = true;
  if (TcpListener.valid()) {
    Poll.remove(TcpListener.fd());
    TcpListener.reset();
  }
  if (UnixListener.valid()) {
    Poll.remove(UnixListener.fd());
    UnixListener.reset();
  }
  // Complete frames already buffered still execute (a drain is not an
  // abort); incomplete tails are abandoned with the read side.  The window
  // is ignored so nothing accepted stays stuck behind a paused parser.
  std::vector<uint64_t> Ids;
  Ids.reserve(Conns.size());
  for (const auto &E : Conns)
    Ids.push_back(E.first);
  for (uint64_t Id : Ids) {
    auto It = Conns.find(Id);
    if (It == Conns.end())
      continue;
    IoConn &C = *It->second;
    C.ReadClosed = true;
    parseFrames(C, /*IgnoreWindow=*/true);
    if (!tryWrite(C))
      continue;
    updateInterest(C);
    maybeClose(C);
  }
  // Shard drain flags flip only after the enqueues above (same thread), so
  // every drained frame is in a queue before any worker sees Drain.
  for (auto &Sh : ShardList) {
    {
      std::lock_guard<std::mutex> L(Sh->QMutex);
      Sh->Drain = true;
    }
    Sh->QCv.notify_all();
  }
}

void Server::Impl::acceptReady(SocketFd &Listener) {
  while (true) {
    int Fd = ::accept(Listener.fd(), nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // EAGAIN, or a transient failure the level trigger retries.
    }
    setNonBlocking(Fd);
    setTcpNoDelay(Fd);
    auto C = std::make_unique<IoConn>();
    C->Fd.reset(Fd);
    C->Id = NextConnId++;
    C->LastWriteProgress = std::chrono::steady_clock::now();
    if (ActiveConns.load() >= Opt.MaxConnections) {
      {
        std::lock_guard<std::mutex> L(StatsMutex);
        ++Counters.ConnectionsRejected;
      }
      // The rejected connection rides the normal flush machinery: the
      // error reply goes out as the loop gets to it, then the socket
      // closes.  Never admitted, never counted active.
      C->Admitted = false;
      C->ReadClosed = true;
      C->ParseDead = true;
      Completion Comp;
      Comp.Rec.ConnId = C->Id;
      Comp.Rec.Seq = C->NextSeq++;
      ++C->InFlight;
      Comp.Response = makeErrorResponse("server at its connection limit");
      Comp.CloseAfter = true;
      IoConn &Ref = *C;
      FdIndex.emplace(Fd, C.get());
      Conns.emplace(Ref.Id, std::move(C));
      Poll.add(Fd, /*R=*/false, /*W=*/true);
      Ref.IntRead = false;
      Ref.IntWrite = true;
      sequenceCompletion(Ref, std::move(Comp));
      if (tryWrite(Ref)) {
        updateInterest(Ref);
        maybeClose(Ref);
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> L(StatsMutex);
      ++Counters.ConnectionsAccepted;
    }
    C->Admitted = true;
    ++ActiveConns;
    IoConn &Ref = *C;
    FdIndex.emplace(Fd, C.get());
    Conns.emplace(Ref.Id, std::move(C));
    Poll.add(Fd, /*R=*/true, /*W=*/false);
    Ref.IntRead = true;
    Ref.IntWrite = false;
  }
}

void Server::Impl::destroyConn(IoConn &C) {
  int Fd = C.Fd.fd();
  Poll.remove(Fd);
  FdIndex.erase(Fd);
  if (C.Admitted)
    --ActiveConns;
  Conns.erase(C.Id); // Destroys C; the SocketFd destructor closes the fd.
}

bool Server::Impl::maybeClose(IoConn &C) {
  if (C.OutPos < C.OutBuf.size())
    return true; // Response bytes still queued.
  if (C.CloseAfterFlush ||
      (C.ReadClosed && C.InFlight == 0 && C.Ready.empty())) {
    destroyConn(C);
    return false;
  }
  return true;
}

void Server::Impl::updateInterest(IoConn &C) {
  bool WindowOpen =
      Opt.InFlightWindow == 0 || C.InFlight < Opt.InFlightWindow;
  bool WantRead = !C.ReadClosed && WindowOpen;
  bool WantWrite = C.OutPos < C.OutBuf.size();
  if (WantRead != C.IntRead || WantWrite != C.IntWrite) {
    C.IntRead = WantRead;
    C.IntWrite = WantWrite;
    Poll.set(C.Fd.fd(), WantRead, WantWrite);
  }
}

bool Server::Impl::readInput(IoConn &C) {
  if (C.ReadClosed)
    return true;
  while (true) {
    // The admission window pauses *reading*, not just parsing: bytes the
    // kernel holds stay there as TCP backpressure until responses drain.
    if (Opt.InFlightWindow && C.InFlight >= Opt.InFlightWindow)
      break;
    size_t Old = C.InBuf.size();
    C.InBuf.resize(Old + kReadChunk);
    ssize_t N = ::recv(C.Fd.fd(), &C.InBuf[Old], kReadChunk, 0);
    if (N > 0) {
      C.InBuf.resize(Old + size_t(N));
      parseFrames(C);
      if (size_t(N) < kReadChunk)
        break; // Drained the kernel buffer.
      continue;
    }
    C.InBuf.resize(Old);
    if (N == 0) {
      // Clean EOF (or half-close): stop reading, but in-flight requests
      // still get their responses before the socket closes.
      C.ReadClosed = true;
      parseFrames(C);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    destroyConn(C);
    return false;
  }
  return true;
}

void Server::Impl::parseFrames(IoConn &C, bool IgnoreWindow) {
  while (!C.ParseDead) {
    if (!IgnoreWindow && Opt.InFlightWindow &&
        C.InFlight >= Opt.InFlightWindow)
      break;
    size_t Avail = C.InBuf.size() - C.InPos;
    if (Avail < kFrameHeaderBytes)
      break;
    size_t PayloadBytes = 0;
    FrameStatus FS = decodeFrameHeader(
        reinterpret_cast<const unsigned char *>(C.InBuf.data()) + C.InPos,
        Opt.MaxFrameBytes, PayloadBytes);
    if (FS != FrameStatus::Ok) {
      // The stream position is unrecoverable after a framing error: answer
      // once -- in order, behind any pending responses -- then close.
      C.ParseDead = true;
      C.ReadClosed = true;
      Completion Comp;
      Comp.Rec.ConnId = C.Id;
      Comp.Rec.Seq = C.NextSeq++;
      ++C.InFlight;
      Comp.Response =
          failRequest(std::string("protocol error: ") + frameStatusName(FS));
      Comp.CloseAfter = true;
      sequenceCompletion(C, std::move(Comp));
      break;
    }
    if (Avail < kFrameHeaderBytes + PayloadBytes)
      break; // Frame still arriving.
    // Zero-copy hand-off: the payload is parsed straight out of the read
    // buffer; nothing below mutates InBuf while the view is live.
    std::string_view Payload(C.InBuf.data() + C.InPos + kFrameHeaderBytes,
                             PayloadBytes);
    C.InPos += kFrameHeaderBytes + PayloadBytes;
    processRequest(C, Payload);
  }
  if (C.InPos >= C.InBuf.size()) {
    C.InBuf.clear();
    C.InPos = 0;
  } else if (C.InPos > kReadChunk) {
    C.InBuf.erase(0, C.InPos);
    C.InPos = 0;
  }
}

void Server::Impl::processRequest(IoConn &C, std::string_view Payload) {
  auto AcceptTime = std::chrono::steady_clock::now();
  Completion Comp;
  RequestRecord &Rec = Comp.Rec;
  Rec.ConnId = C.Id;
  Rec.Seq = C.NextSeq++;
  ++C.InFlight;
  ServiceRequest Req;
  std::string Error;
  if (!parseServiceRequest(Payload, Req, Error)) {
    // Framing is intact; answer (in order) and keep serving.  A request
    // that never parsed has no trace context to echo, traced or not.
    Comp.Response = failRequest(Error);
    sequenceCompletion(C, std::move(Comp));
    return;
  }
  Rec.Kind = Req.K;
  obs::EventLog &Events = obs::EventLog::global();
  // A trace is armed when the client asked for one, when the slow log
  // could need the span tree, or when the event ring wants request events
  // with ids.  Untraced otherwise: the handler path does zero extra work,
  // keeping the no-observers deployment at its old cost.
  obs::RequestTrace &Trace = Rec.Trace;
  if (Req.Trace || Opt.SlowMs >= 0 || Events.enabled()) {
    Trace.begin(Req.TraceId.empty()
                    ? obs::makeTraceId(TraceSalt, NextTraceSeq++)
                    : Req.TraceId,
                AcceptTime);
    Trace.Echo = Req.Trace;
    Trace.enter(obs::RequestTrace::Stage::QueueWait);
  }
  if (Req.K == ServiceRequest::Kind::Ping ||
      Req.K == ServiceRequest::Kind::Stats) {
    // Answered on the IO thread: both are cheap, and stats must observe
    // the shards, not run inside one.
    auto Begin = std::chrono::steady_clock::now();
    Trace.enter(obs::RequestTrace::Stage::Dispatch);
    Events.record(obs::EventKind::RequestStart, 0, Trace.id().c_str(),
                  requestKindName(Req.K));
    const std::string EchoId = Trace.Echo ? Trace.id() : std::string();
    {
      std::lock_guard<std::mutex> L(StatsMutex);
      ++Counters.RequestsTotal;
      ++(Req.K == ServiceRequest::Kind::Ping ? Counters.RequestsPing
                                             : Counters.RequestsStats);
    }
    Comp.Response = Req.K == ServiceRequest::Kind::Ping
                        ? makePongResponse(EchoId)
                        : makeStatsResponse(snapshotStats(), EchoId);
    Rec.ServiceMs = msSince(Begin);
    ServiceHist.record(Rec.ServiceMs);
    {
      std::lock_guard<std::mutex> L(StatsMutex);
      InlineBusyMs += Rec.ServiceMs;
    }
    Trace.leave();
    Rec.TrackEnd = true;
    sequenceCompletion(C, std::move(Comp));
    return;
  }
  // Content-hash routing: identical work always lands on the same shard,
  // so its private cache sees every repeat.
  Shard &Sh = *ShardList[size_t(routeRequestHash(Req) % NumShards)];
  bool Full = false;
  bool Saturated = false;
  {
    std::lock_guard<std::mutex> L(Sh.QMutex);
    if (Sh.Queue.size() >= Opt.QueueCapacity) {
      Full = true;
    } else {
      Sh.Queue.push_back({std::move(Rec), std::move(Req)});
      Sh.QueueMaxDepth =
          std::max<uint64_t>(Sh.QueueMaxDepth, Sh.Queue.size());
      Saturated = Sh.Queue.size() >= Opt.QueueCapacity;
    }
  }
  if (Full) {
    // Admission control: a full shard queue turns into an immediate,
    // clean rejection the client can retry on -- never unbounded
    // buffering, never a stalled event loop.
    {
      std::lock_guard<std::mutex> L(StatsMutex);
      ++Counters.RequestsTotal;
      ++Counters.RequestsRejected;
    }
    Events.record(obs::EventKind::Reject, double(Opt.QueueCapacity),
                  Trace.id().c_str(), "shard queue full");
    Comp.Response =
        makeErrorResponse("server overloaded: shard queue full, retry later",
                          Trace.Echo ? Trace.id() : std::string());
    sequenceCompletion(C, std::move(Comp));
    return;
  }
  ++OutstandingShardJobs;
  Sh.QCv.notify_one();
  if (Saturated)
    obs::EventLog::global().record(obs::EventKind::QueueSaturated,
                                   double(Opt.QueueCapacity));
}

void Server::Impl::sequenceCompletion(IoConn &C, Completion Comp) {
  C.Ready.emplace(Comp.Rec.Seq, std::move(Comp));
  // Flush the in-order prefix: a completion for request N waits here until
  // every response before N is in the output buffer.
  while (!C.Ready.empty() && C.Ready.begin()->first == C.NextFlushSeq) {
    Completion Next = std::move(C.Ready.begin()->second);
    C.Ready.erase(C.Ready.begin());
    appendResponse(C, Next);
    --C.InFlight;
    ++C.NextFlushSeq;
  }
}

void Server::Impl::appendResponse(IoConn &C, Completion &Comp) {
  // A response that cannot be framed (beyond the server's own bound)
  // becomes an error the client *can* read, instead of a frame its
  // readFrame would reject as oversized after the server paid the full
  // solve cost.
  const std::string *Out = &Comp.Response;
  std::string Fallback;
  if (Comp.Response.size() > Opt.MaxFrameBytes) {
    Fallback = makeErrorResponse(
        "response of " + std::to_string(Comp.Response.size()) +
        " bytes exceeds the server frame bound of " +
        std::to_string(Opt.MaxFrameBytes) +
        "; narrow the request (fewer suites/register counts or "
        "details=false) or raise --max-frame");
    Out = &Fallback;
  }
  FlushRecord R;
  R.FlushStartTime = std::chrono::steady_clock::now();
  R.Rec = std::move(Comp.Rec);
  R.Rec.Trace.enter(obs::RequestTrace::Stage::ResponseFlush);
  bool WasDrained = C.OutPos >= C.OutBuf.size();
  C.OutBuf += encodeFrameHeader(Out->size());
  C.OutBuf += *Out;
  C.BytesQueuedTotal += kFrameHeaderBytes + Out->size();
  R.EndOffset = C.BytesQueuedTotal;
  if (WasDrained)
    C.LastWriteProgress = R.FlushStartTime;
  C.Flushes.push_back(std::move(R));
  if (Comp.CloseAfter) {
    C.CloseAfterFlush = true;
    C.ReadClosed = true;
    C.ParseDead = true;
  }
}

bool Server::Impl::tryWrite(IoConn &C) {
  while (C.OutPos < C.OutBuf.size()) {
    ssize_t N = ::send(C.Fd.fd(), C.OutBuf.data() + C.OutPos,
                       C.OutBuf.size() - C.OutPos, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += size_t(N);
      C.BytesFlushedTotal += uint64_t(N);
      C.LastWriteProgress = std::chrono::steady_clock::now();
      while (!C.Flushes.empty() &&
             C.Flushes.front().EndOffset <= C.BytesFlushedTotal) {
        finalizeFlush(C.Flushes.front());
        C.Flushes.pop_front();
      }
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    if (N < 0 && errno == EINTR)
      continue;
    // A vanished or wedged client is not a server error -- its connection
    // is simply dropped.
    destroyConn(C);
    return false;
  }
  if (C.OutPos >= C.OutBuf.size()) {
    C.OutBuf.clear();
    C.OutPos = 0;
  } else if (C.OutPos > (256u << 10)) {
    C.OutBuf.erase(0, C.OutPos);
    C.OutPos = 0;
  }
  return true;
}

void Server::Impl::finalizeFlush(FlushRecord &R) {
  RequestRecord &Rec = R.Rec;
  double TotalMs = Rec.ServiceMs + msSince(R.FlushStartTime);
  Rec.Trace.leave();
  if (!Rec.TrackEnd)
    return;
  obs::EventLog::global().record(obs::EventKind::RequestEnd, TotalMs,
                                 Rec.Trace.id().c_str(),
                                 requestKindName(Rec.Kind));
  if (Opt.SlowMs >= 0 && TotalMs >= Opt.SlowMs)
    emitSlowRequest(Rec.Trace, TotalMs, Rec.Kind);
}

void Server::Impl::drainCompletions() {
  std::vector<Completion> Batch;
  {
    std::lock_guard<std::mutex> L(CompMutex);
    Batch.swap(Completions);
  }
  for (Completion &Comp : Batch) {
    --OutstandingShardJobs;
    auto It = Conns.find(Comp.Rec.ConnId);
    if (It == Conns.end())
      continue; // Connection died while its request was in flight.
    IoConn &C = *It->second;
    sequenceCompletion(C, std::move(Comp));
    // A response left the window; buffered frames may be parseable now.
    parseFrames(C);
    if (!tryWrite(C))
      continue;
    updateInterest(C);
    maybeClose(C);
  }
}

void Server::Impl::checkWriteTimeouts() {
  std::vector<uint64_t> Stale;
  for (const auto &E : Conns) {
    IoConn &C = *E.second;
    if (C.OutPos < C.OutBuf.size() &&
        msSince(C.LastWriteProgress) > kStalledWriteMs)
      Stale.push_back(E.first);
  }
  for (uint64_t Id : Stale) {
    auto It = Conns.find(Id);
    if (It != Conns.end())
      destroyConn(*It->second);
  }
}

void Server::Impl::shardLoop(Shard &Sh) {
  while (true) {
    ShardJob Job;
    {
      std::unique_lock<std::mutex> L(Sh.QMutex);
      Sh.QCv.wait(L, [&Sh] { return !Sh.Queue.empty() || Sh.Drain; });
      if (Sh.Queue.empty())
        return; // Draining and fully drained.
      Job = std::move(Sh.Queue.front());
      Sh.Queue.pop_front();
    }
    auto Begin = std::chrono::steady_clock::now();
    RequestRecord &Rec = Job.Rec;
    Rec.Trace.enter(obs::RequestTrace::Stage::Dispatch);
    Rec.Trace.ShardId = int(Sh.Index);
    obs::EventLog::global().record(obs::EventKind::RequestStart, 0,
                                   Rec.Trace.id().c_str(),
                                   requestKindName(Rec.Kind));
    Completion Comp;
    Comp.Response = Rec.Kind == ServiceRequest::Kind::Allocate
                        ? handleAllocate(Sh, Job.Req, Rec.Trace)
                        : handleSubmitIr(Sh, Job.Req, Rec.Trace);
    Rec.ServiceMs = msSince(Begin);
    ServiceHist.record(Rec.ServiceMs);
    {
      std::lock_guard<std::mutex> L(Sh.StatMutex);
      Sh.BusyMs += Rec.ServiceMs;
      ++Sh.Requests;
    }
    // Handlers leave dispatch for the driver stage and close that once
    // the solve ends.  Paths that never got there -- validation
    // rejections -- close dispatch here, covering the whole handler.
    Rec.Trace.leave();
    Rec.TrackEnd = true;
    Comp.Rec = std::move(Rec);
    postCompletion(std::move(Comp));
  }
}

void Server::Impl::emitSlowRequest(const obs::RequestTrace &Trace,
                                   double TotalMs, ServiceRequest::Kind K) {
  obs::EventLog::global().record(obs::EventKind::SlowRequest, TotalMs,
                                 Trace.id().c_str(), requestKindName(K));
  JsonValue Line = JsonValue::object();
  Line.set("event", "slow_request");
  Line.set("kind", requestKindName(K));
  Line.set("total_ms", TotalMs);
  Line.set("trace", Trace.toJson());
  std::string Text = Line.dump(0) + "\n";
  std::FILE *Out = Opt.SlowLog ? Opt.SlowLog : stderr;
  std::fwrite(Text.data(), 1, Text.size(), Out);
  std::fflush(Out);
}

std::string Server::Impl::failRequest(const std::string &Message,
                                      const obs::RequestTrace &Trace) {
  {
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.RequestsTotal;
    ++Counters.RequestsFailed;
  }
  obs::EventLog::global().record(obs::EventKind::Reject, 0,
                                 Trace.id().c_str(), Message.c_str());
  return makeErrorResponse(Message, Trace.Echo ? Trace.id() : std::string());
}

std::string Server::Impl::validateCommon(const ServiceRequest &Req,
                                         const obs::RequestTrace &Trace) {
  const TargetDesc *Target = targetByName(Req.TargetName);
  if (!Target)
    return failRequest("unknown target '" + Req.TargetName + "'", Trace);
  for (const ClassRegOverride &O : Req.ClassRegs)
    if (Target->classIdByName(O.Class) < 0)
      return failRequest("target '" + Req.TargetName +
                             "' has no register class '" + O.Class + "'",
                         Trace);
  if (!makeAllocator(Req.Options.AllocatorName))
    return failRequest("unknown allocator '" + Req.Options.AllocatorName +
                           "'",
                       Trace);
  return std::string();
}

std::string Server::Impl::runJobs(Shard &Sh,
                                  const std::vector<BatchJob> &Jobs,
                                  const ServiceRequest &Req,
                                  uint64_t ServerStats::*Counter,
                                  obs::RequestTrace &Trace) {
  // The dispatch stage covers dequeue to driver start (validation, suite
  // lookup, job building); the driver stage is the solve itself.
  Trace.enter(obs::RequestTrace::Stage::Driver);
  uint64_t EvictionsBefore = Sh.Driver.pipelineCacheCounters().Evictions;
  // Transparent mode makes the response byte-identical to a direct fresh
  // BatchDriver run of the same jobs, however warm the shard's cache or
  // the disk cache is.  A *timing* request gets the honest warm-cache view
  // instead: with transparency its wall_ms would read 0 for tasks the
  // persistent cache served while cache_hit claimed a fresh solve --
  // self-contradictory.  Byte identity is only promised for timing-free
  // responses anyway (docs/PROTOCOL.md).
  //
  // A traced run accounts its own solver phases (and no other shard's)
  // and moves them from the report into the trace, so a traced report --
  // phase_ms of a timing response included -- keeps an untraced one's
  // bytes.
  DriverReport Report;
  {
    obs::ThreadPhaseAccounting TracedAccounting(Trace.active());
    Report = Sh.Driver.run(Jobs, /*CacheTransparent=*/!Req.Timing);
  }
  Trace.leave();
  if (Trace.active()) {
    for (JobReport &JR : Report.Jobs) {
      Trace.JobPhases.push_back(*JR.Phases);
      JR.Phases.reset();
    }
    uint64_t Evicted =
        Sh.Driver.pipelineCacheCounters().Evictions - EvictionsBefore;
    if (Evicted > 0)
      obs::EventLog::global().record(obs::EventKind::CachePressure,
                                     double(Evicted), Trace.id().c_str());
  }
  JsonValue Doc = driverReportToJson(Report, Req.Timing, Req.Details);
  // The span tree lands after every report member (JsonValue::set appends
  // new keys), so a traced response differs from an untraced one only by
  // the trailing "trace" object -- ServerLoopbackTest holds us to that.
  if (Trace.Echo)
    Doc.set("trace", Trace.toJson());
  std::string Response = Doc.dump(2) + "\n";
  {
    std::lock_guard<std::mutex> L(StatsMutex);
    ++Counters.RequestsTotal;
    ++(Counters.*Counter);
  }
  {
    std::lock_guard<std::mutex> L(Sh.StatMutex);
    Sh.Cache = Sh.Driver.pipelineCacheCounters();
  }
  return Response;
}

std::string Server::Impl::handleAllocate(Shard &Sh,
                                         const ServiceRequest &Req,
                                         obs::RequestTrace &Trace) {
  std::string Rejection = validateCommon(Req, Trace);
  if (!Rejection.empty())
    return Rejection;
  std::vector<std::string> Known = allSuiteNames();
  for (const std::string &Name : Req.Suites)
    if (std::find(Known.begin(), Known.end(), Name) == Known.end())
      return failRequest("unknown suite '" + Name + "'", Trace);

  const TargetDesc *Target = targetByName(Req.TargetName);
  std::vector<BatchJob> Jobs;
  for (const std::string &Name : Req.Suites) {
    auto It = Sh.SuiteCache.find(Name);
    if (It == Sh.SuiteCache.end())
      It = Sh.SuiteCache.emplace(Name, makeSuite(Name)).first;
    // A suite with multi-class functions needs a target with those files
    // (e.g. mixed-classes on plain st231 must be a request error, not a
    // driver abort).
    for (const SuiteProgram &Prog : It->second.Programs)
      for (const Function &F : Prog.Functions)
        if (std::string E = checkFunctionClasses(F, *Target); !E.empty())
          return failRequest("suite '" + Name + "': " + E, Trace);
    for (unsigned Regs : Req.Regs) {
      BatchJob Job;
      Job.SuiteName = Name;
      Job.SuiteData = &It->second;
      Job.Target = *Target;
      Job.NumRegisters = Regs;
      Job.ClassRegs = Req.ClassRegs;
      Job.Options = Req.Options;
      Jobs.push_back(std::move(Job));
    }
  }
  return runJobs(Sh, Jobs, Req, &ServerStats::RequestsAllocate, Trace);
}

std::string Server::Impl::handleSubmitIr(Shard &Sh,
                                         const ServiceRequest &Req,
                                         obs::RequestTrace &Trace) {
  std::string Rejection = validateCommon(Req, Trace);
  if (!Rejection.empty())
    return Rejection;
  // validateCommon just proved the target exists; one lookup serves the
  // class check and the job construction below.
  const TargetDesc *Target = targetByName(Req.TargetName);
  ParsedFunction Parsed = parseFunction(Req.IrText);
  if (!Parsed.Ok)
    return failRequest("ir parse error at line " +
                           std::to_string(Parsed.Line) + ": " + Parsed.Error,
                       Trace);
  std::string VerifyError;
  if (!verifyFunction(Parsed.F, /*ExpectSsa=*/true, &VerifyError))
    return failRequest("ir is not strict SSA: " + VerifyError, Trace);
  // Reject class ids the target has no file for before the pipeline's
  // fatal-error path can see them.
  if (std::string E = checkFunctionClasses(Parsed.F, *Target); !E.empty())
    return failRequest(E, Trace);

  Suite S;
  S.Name = Req.Name.empty() ? "submitted" : Req.Name;
  SuiteProgram Prog;
  Prog.Name = Parsed.F.name();
  Prog.Functions.push_back(std::move(Parsed.F));
  S.Programs.push_back(std::move(Prog));

  // A "base" key was validated at parse time and is ignored here: the
  // response is the same bytes with or without it (docs/PROTOCOL.md).
  std::vector<BatchJob> Jobs;
  for (unsigned Regs : Req.Regs) {
    BatchJob Job;
    Job.SuiteName = S.Name;
    Job.SuiteData = &S;
    Job.Target = *Target;
    Job.NumRegisters = Regs;
    Job.ClassRegs = Req.ClassRegs;
    Job.Options = Req.Options;
    Jobs.push_back(std::move(Job));
  }
  return runJobs(Sh, Jobs, Req, &ServerStats::RequestsSubmitIr, Trace);
}

ServerStats Server::Impl::snapshotStats() {
  // The histogram is wait-free concurrent state; read it before taking
  // StatsMutex so a slow percentile walk never extends the lock hold.
  HistogramSnapshot Latency = ServiceHist.snapshot();
  Latency.Name = "layra.serve.service_ms";
  ServerStats S;
  double BusyMs = 0;
  {
    std::lock_guard<std::mutex> L(StatsMutex);
    S = Counters;
    BusyMs = InlineBusyMs;
  }
  S.UptimeMs = msSince(StartTime);
  S.PerShard.reserve(ShardList.size());
  for (const auto &ShPtr : ShardList) {
    Shard &Sh = *ShPtr;
    ShardStats E;
    {
      std::lock_guard<std::mutex> L(Sh.StatMutex);
      E.Requests = Sh.Requests;
      E.BusyMs = Sh.BusyMs;
      E.Cache = Sh.Cache;
    }
    {
      std::lock_guard<std::mutex> L(Sh.QMutex);
      E.QueueDepth = Sh.Queue.size();
      E.QueueMaxDepth = Sh.QueueMaxDepth;
    }
    E.QueueCapacity = Opt.QueueCapacity;
    S.Cache.Entries += E.Cache.Entries;
    S.Cache.Capacity += E.Cache.Capacity;
    S.Cache.Hits += E.Cache.Hits;
    S.Cache.Misses += E.Cache.Misses;
    S.Cache.Evictions += E.Cache.Evictions;
    S.QueueDepth += E.QueueDepth;
    S.QueueMaxDepth = std::max(S.QueueMaxDepth, E.QueueMaxDepth);
    BusyMs += E.BusyMs;
    S.PerShard.push_back(std::move(E));
  }
  S.QueueCapacity = uint64_t(Opt.QueueCapacity) * NumShards;
  S.DispatcherBusyMs = BusyMs;
  S.DispatcherUtilization =
      S.UptimeMs > 0 ? std::min(1.0, BusyMs / S.UptimeMs) : 0.0;
  S.ConnectionsActive = ActiveConns.load();
  if (Disk && Disk->valid())
    S.Disk = Disk->stats();
  S.ServiceSamples = Latency.Count;
  S.ServiceMsP50 = Latency.percentile(0.50);
  S.ServiceMsP95 = Latency.percentile(0.95);
  S.ServiceMsP99 = Latency.percentile(0.99);
  S.ServiceLatency = std::move(Latency);
  return S;
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions Options)
    : State(std::make_unique<Impl>(std::move(Options))) {}

Server::~Server() {
  requestStop();
  wait();
}

bool Server::start(std::string *Error) { return State->start(Error); }

void Server::requestStop() {
  if (State->Started)
    State->requestStop();
}

void Server::wait() { State->wait(); }

bool Server::running() const { return State->Started && !State->Drained; }

uint16_t Server::tcpPort() const { return State->BoundTcpPort; }

const std::string &Server::unixPath() const { return State->Opt.UnixPath; }

ServerStats Server::stats() const { return State->snapshotStats(); }
