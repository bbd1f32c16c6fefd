//===- Server.cpp - Search-as-a-service engine and transports ---------------==//

#include "server/Server.h"

#include "obs/SlowTraceRing.h" // sanitizeRequestId
#include "server/Protocol.h"
#include "support/Profiler.h"
#include "support/Trace.h" // jsonEscape

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

using namespace seminal;
using namespace seminal::server;

std::string server::renderCheckResponse(const std::string &Id,
                                        const CheckOutcome &O) {
  std::string M;
  M.reserve(400 + (O.RenderedAnswer ? O.RenderedAnswer->size() : 0) +
            O.ReportJson.size());
  M += "{\"id\":";
  M += Id;
  M += ",\"ok\":true";
  if (O.RenderedAnswer)
    M += *O.RenderedAnswer;
  else
    appendAnswerMembers(M, O);
  // The counters and the ledger ride on every check reply, a syntax
  // error's included, so the replies sum to the engine's counters.
  M += ",\"oracle_calls\":";
  appendJsonUint(M, O.OracleCalls);
  M += ",\"inference_runs\":";
  appendJsonUint(M, O.InferenceRuns);
  M += ",\"warm\":{\"prefix_hits\":";
  appendJsonUint(M, O.Accel.SessionPrefixHits);
  M += ",\"seed_adoptions\":";
  appendJsonUint(M, O.Accel.SessionSeedAdoptions);
  M += ",\"replayed\":";
  appendJsonBool(M, O.Replayed);
  M += "},\"wall_seconds\":";
  appendJsonDouble(M, O.WallSeconds);
  M += ",\"cost\":{\"cpu_ns\":";
  appendJsonUint(M, O.CpuNs);
  M += ",\"wall_ns\":";
  appendJsonUint(M, O.wallNs());
  M += ",\"oracle_calls\":";
  appendJsonUint(M, O.OracleCalls);
  M += ",\"inference_runs\":";
  appendJsonUint(M, O.InferenceRuns);
  M += ",\"arena_bytes\":";
  appendJsonUint(M, O.Accel.ArenaBytes);
  M += ",\"verdict_cache_hits\":";
  appendJsonUint(M, O.Accel.CacheHits);
  M += "},\"evicted\":";
  appendJsonBool(M, O.Evicted);
  if (!O.SlowTracePath.empty()) {
    M += ",\"slow_trace\":";
    appendJsonString(M, O.SlowTracePath);
  }
  if (!O.ReportJson.empty()) {
    M += ",\"report\":";
    M += O.ReportJson;
  }
  M += '}';
  return M;
}

namespace {

uint64_t warmTotal(const AccelCounters &A) {
  return A.SessionPrefixHits + A.SessionSeedAdoptions;
}

uint64_t microsSince(std::chrono::steady_clock::time_point Start) {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - Start)
                      .count());
}

/// Per-connection write side, shared (via shared_ptr) between the
/// reader thread and any pool worker still holding a reply callback
/// after the reader is gone. Alive-under-WriteLock is the teardown
/// contract: Alive is read and flipped only with WriteLock held, and
/// the reader closes the fd only *after* marking the writer dead under
/// the lock -- so a late reply is dropped instead of racing onto a
/// closed, or worse, recycled descriptor.
struct ConnWriter {
  explicit ConnWriter(int Fd) : Fd(Fd) {}

  /// Ranked ServerWrite: reply callbacks run with an empty held-set
  /// (inline methods) or after the pool mutex was dropped (workers), so
  /// any rank would do; ServerWrite documents "write-side, innermost of
  /// the server layer".
  sync::Mutex WriteLock{sync::LockRank::ServerWrite, "server.conn.write"};
  bool Alive SEMINAL_GUARDED_BY(WriteLock) = true;
  const int Fd;

  /// Flips the connection dead. The REQUIRES contract is the point:
  /// callers must already hold WriteLock, which orders the flip before
  /// any close() that follows the release.
  void markDead() SEMINAL_REQUIRES(WriteLock) { Alive = false; }

  /// Writes one reply line (newline appended). Dropped silently when
  /// the connection is already dead; a failed send marks it dead for
  /// every later reply. The line and its newline leave in one sendmsg
  /// of two iovecs, so the reply is not copied; a short send resumes
  /// where it stopped.
  void sendLine(const std::string &Line) SEMINAL_EXCLUDES(WriteLock) {
    sync::MutexLock Lock(WriteLock);
    if (!Alive)
      return;
    char Newline = '\n';
    iovec Parts[2] = {{const_cast<char *>(Line.data()), Line.size()},
                      {&Newline, 1}};
    msghdr Msg{};
    Msg.msg_iov = Parts;
    Msg.msg_iovlen = 2;
    while (Msg.msg_iovlen != 0) {
      ssize_t N = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
      if (N <= 0) {
        markDead(); // Client went away; drop the rest.
        return;
      }
      size_t Sent = size_t(N);
      for (; Msg.msg_iovlen != 0 && Sent >= Msg.msg_iov->iov_len;
           ++Msg.msg_iov, --Msg.msg_iovlen)
        Sent -= Msg.msg_iov->iov_len;
      if (Msg.msg_iovlen != 0) {
        Msg.msg_iov->iov_base =
            static_cast<char *>(Msg.msg_iov->iov_base) + Sent;
        Msg.msg_iov->iov_len -= Sent;
      }
    }
  }
};

} // namespace

ServerEngine::ServerEngine(const ServerOptions &Opts)
    : Opts(Opts), Slo(Opts.Slo) {
  Pool = std::make_unique<ThreadPool>(Opts.Threads);
  // Sessions do the actual slow-request capture; hand them the ring.
  this->Opts.Session.TraceSlowMs = Opts.TraceSlowMs;
  this->Opts.Session.SlowTraces = Opts.SlowTraces;

  // Resolve every instrument once (naming conventions: DESIGN.md
  // section 14). Hot paths touch only these cached pointers.
  Ops.Requests = &Registry.counter("seminal_requests_total",
                                   "Request lines received, all methods");
  Ops.Checks =
      &Registry.counter("seminal_checks_total", "Check requests served");
  Ops.Resets =
      &Registry.counter("seminal_resets_total", "Reset requests served");
  Ops.Pings = &Registry.counter("seminal_pings_total", "Ping requests served");
  Ops.Malformed = &Registry.counter("seminal_malformed_total",
                                    "Request lines that failed to parse");
  Ops.SessionsCreated = &Registry.counter("seminal_sessions_created_total",
                                          "Sessions created since start");
  Ops.Evictions = &Registry.counter("seminal_evictions_total",
                                    "Retained-bytes watermark evictions");
  Ops.Replays = &Registry.counter(
      "seminal_replays_total",
      "Checks answered by replaying the session's previous answer");
  Ops.OracleCalls = &Registry.counter("seminal_oracle_calls_total",
                                      "Logical oracle calls across checks");
  Ops.InferenceRuns = &Registry.counter("seminal_inference_runs_total",
                                        "Full inference runs across checks");
  Ops.WarmPrefixHits = &Registry.counter(
      "seminal_warm_hits_total", "Session warm-state reuses, by kind",
      {{"kind", "prefix_hits"}});
  Ops.WarmSeedAdoptions = &Registry.counter("seminal_warm_hits_total", "",
                                            {{"kind", "seed_adoptions"}});
  Ops.SlowTraces = &Registry.counter("seminal_slow_traces_total",
                                     "Requests that exported a slow trace");
  Ops.Sessions = &Registry.gauge("seminal_sessions", "Live sessions");
  Ops.ArenaBytes = &Registry.gauge(
      "seminal_arena_bytes", "Bytes retained across all sessions");
  Ops.CostCpuUs = &Registry.counter(
      "seminal_cost_cpu_us_total",
      "Ledger: request thread-CPU microseconds across checks");
  Ops.CostWallUs = &Registry.counter(
      "seminal_cost_wall_us_total",
      "Ledger: request wall microseconds across checks");
  Ops.CostVerdictHits = &Registry.counter(
      "seminal_cost_verdict_cache_hits_total",
      "Ledger: calls answered from the known prefix across checks");
  Ops.CostArenaBytes = &Registry.gauge(
      "seminal_cost_arena_bytes",
      "Ledger: retained bytes after the most recent check");
  Ops.SloBurnFast = &Registry.gauge(
      "seminal_slo_burn_rate_milli",
      "Warm-latency SLO burn rate x1000 (1000 = on budget), by window",
      {{"window", "fast"}});
  Ops.SloBurnSlow = &Registry.gauge("seminal_slo_burn_rate_milli", "",
                                    {{"window", "slow"}});
  Ops.SlowestLatencyUs = &Registry.gauge(
      "seminal_slowest_request_latency_us",
      "Latency of the slowest check since start (exemplar gauge)");
  Ops.SlowestInfo = &Registry.info(
      "seminal_slowest_request_info",
      "Identity of the slowest check since start (exemplar labels)");
  Ops.LatencyCold = &Registry.histogram(
      "seminal_request_latency_us",
      "Check latency submit-to-reply in microseconds, by warmth",
      {{"state", "cold"}});
  Ops.LatencyWarm = &Registry.histogram("seminal_request_latency_us", "",
                                        {{"state", "warm"}});
  Ops.RequestCpuUs = &Registry.histogram(
      "seminal_request_cpu_us",
      "Thread-CPU microseconds one check consumed (ledger CpuNs/1000)");
  Ops.OracleCallsPerRequest =
      &Registry.histogram("seminal_oracle_calls_per_request",
                          "Logical oracle calls made by one check");
  Ops.Shards.resize(Pool->numThreads());
  for (size_t S = 0; S < Ops.Shards.size(); ++S) {
    obs::OpsLabels L{{"shard", std::to_string(S)}};
    Ops.Shards[S].Requests = &Registry.counter(
        "seminal_shard_requests_total", "Check/reset requests run per shard",
        L);
    Ops.Shards[S].BusyUs = &Registry.counter(
        "seminal_shard_busy_us_total", "Microseconds spent running requests",
        L);
    Ops.Shards[S].CpuUs = &Registry.counter(
        "seminal_shard_cpu_us_total",
        "Ledger: thread-CPU microseconds of checks run per shard", L);
    Ops.Shards[S].QueueDepth = &Registry.gauge(
        "seminal_shard_queue_depth", "Requests posted but not yet started",
        L);
    Ops.Shards[S].QueueWaitUs = &Registry.histogram(
        "seminal_shard_queue_wait_us", "Microseconds from post to start", L);
  }
}

ServerEngine::~ServerEngine() {
  // Posted handlers reference the engine (instruments, retained shares)
  // and sessions; run them all down before any member dies.
  Pool->drainPosted();
  Pool.reset();
}

unsigned ServerEngine::shards() const { return Pool->numThreads(); }

size_t ServerEngine::shardOf(const std::string &SessionName) const {
  return std::hash<std::string>()(SessionName) % Pool->numThreads();
}

std::shared_ptr<Session> ServerEngine::sessionFor(const std::string &Name) {
  sync::MutexLock Lock(Mutex);
  auto It = Sessions.find(Name);
  if (It != Sessions.end())
    return It->second;
  auto S = std::make_shared<Session>(Name, Opts.Session);
  Sessions.emplace(Name, S);
  Ops.SessionsCreated->inc();
  Ops.Sessions->set(int64_t(Sessions.size()));
  return S;
}

void ServerEngine::setArenaShare(const std::string &SessionName,
                                 uint64_t Bytes) {
  // Process-wide retained-bytes gauge, tracked as a sum of per-session
  // deltas so one request updates it in O(1).
  uint64_t &Prev = ArenaBySession[SessionName];
  TotalArenaBytes += Bytes - Prev;
  Prev = Bytes;
  Ops.ArenaBytes->set(int64_t(TotalArenaBytes));
}

void ServerEngine::finishCheck(const std::string &Id,
                               const std::string &SessionName, size_t Shard,
                               uint64_t LatencyUs, const CheckOutcome &Out) {
  bool NewSlowest = false;
  {
    sync::MutexLock Lock(Mutex);
    setArenaShare(SessionName, Out.ArenaBytes);
    if (LatencyUs > SlowestLatencyUs) {
      SlowestLatencyUs = LatencyUs;
      NewSlowest = true;
    }
  }
  if (NewSlowest) {
    // Rank order holds: the OpsInfo label mutex is Leaf (> ServerEngine),
    // but we set it outside the engine lock anyway; a racing pair of
    // new-maxima may publish in either order, which only ever leaves the
    // *other* near-maximum exemplar -- acceptable for a debugging aid.
    Ops.SlowestLatencyUs->set(int64_t(LatencyUs));
    Ops.SlowestInfo->set({{"id", obs::sanitizeRequestId(Id)},
                          {"session", obs::sanitizeRequestId(SessionName)},
                          {"shard", std::to_string(Shard)}});
  }
  Ops.Checks->inc();
  Ops.OracleCalls->inc(Out.OracleCalls);
  Ops.InferenceRuns->inc(Out.InferenceRuns);
  // Ledger time counters are in microseconds, floored per check (ns
  // counters overflow dashboards' rate() windows).
  uint64_t CpuUs = Out.CpuNs / 1000;
  Ops.CostCpuUs->inc(CpuUs);
  Ops.CostWallUs->inc(Out.wallNs() / 1000);
  Ops.CostVerdictHits->inc(Out.Accel.CacheHits);
  Ops.CostArenaBytes->set(int64_t(Out.Accel.ArenaBytes));
  Ops.Shards[Shard].CpuUs->inc(CpuUs);
  Ops.WarmPrefixHits->inc(Out.Accel.SessionPrefixHits);
  Ops.WarmSeedAdoptions->inc(Out.Accel.SessionSeedAdoptions);
  bool Warm = warmTotal(Out.Accel) > 0;
  if (Out.Evicted)
    Ops.Evictions->inc();
  if (Out.Replayed)
    Ops.Replays->inc();
  if (!Out.SlowTracePath.empty())
    Ops.SlowTraces->inc();
  // A replay reuses the whole previous answer: the warmest check there is.
  (Warm || Out.Replayed ? Ops.LatencyWarm : Ops.LatencyCold)
      ->record(LatencyUs);
  Ops.RequestCpuUs->record(CpuUs);
  Ops.OracleCallsPerRequest->record(Out.OracleCalls);
}

void ServerEngine::logCheck(const std::string &Id,
                            const std::string &SessionName, size_t Shard,
                            uint64_t LatencyUs, const CheckOutcome &Out) {
  if (!Opts.Log || !Opts.Log->enabled(obs::LogLevel::Info))
    return;
  obs::LogEvent E("check");
  E.str("id", Id)
      .str("session", SessionName)
      .num("shard", uint64_t(Shard))
      .real("latency_ms", double(LatencyUs) / 1000.0)
      .real("cpu_ms", double(Out.CpuNs) / 1e6)
      .num("oracle_calls", Out.OracleCalls)
      .num("inference_runs", Out.InferenceRuns)
      .num("warm_hits", warmTotal(Out.Accel))
      .num("suggestions", uint64_t(Out.Suggestions.size()))
      .boolean("evicted", Out.Evicted)
      .boolean("replayed", Out.Replayed);
  if (!Out.SyntaxError.empty())
    E.boolean("syntax_error", true);
  if (!Out.SlowTracePath.empty())
    E.str("slow_trace", Out.SlowTracePath);
  Opts.Log->info(E);
}

void ServerEngine::rejectOverlongLine(const ReplyFn &Reply) {
  Ops.Requests->inc();
  Ops.Malformed->inc();
  const std::string Error = "malformed request: line longer than " +
                            std::to_string(MaxRequestLineBytes) + " bytes";
  if (Opts.Log && Opts.Log->enabled(obs::LogLevel::Warn))
    Opts.Log->warn(obs::LogEvent("malformed").str("error", Error));
  Reply(errorResponse("null", Error));
}

void ServerEngine::submit(const std::string &Line, ReplyFn Reply) {
  auto Submitted = std::chrono::steady_clock::now();
  Ops.Requests->inc();
  Request R = parseRequest(Line);
  switch (R.TheMethod) {
  case Request::Method::Invalid: {
    Ops.Malformed->inc();
    if (Opts.Log && Opts.Log->enabled(obs::LogLevel::Warn))
      Opts.Log->warn(
          obs::LogEvent("malformed").str("id", R.Id).str("error", R.Error));
    Reply(errorResponse(R.Id, R.Error));
    return;
  }
  case Request::Method::Ping: {
    Ops.Pings->inc();
    if (Opts.Log && Opts.Log->enabled(obs::LogLevel::Debug))
      Opts.Log->debug(obs::LogEvent("ping").str("id", R.Id));
    Reply(okResponse(R.Id, ",\"pong\":true"));
    return;
  }
  case Request::Method::Stats: {
    if (Opts.Log && Opts.Log->enabled(obs::LogLevel::Debug))
      Opts.Log->debug(obs::LogEvent("stats").str("id", R.Id));
    Reply(okResponse(R.Id, renderStats()));
    return;
  }
  case Request::Method::Metrics: {
    std::string Extra;
    if (R.Format == "prometheus") {
      Extra = ",\"format\":\"prometheus\",\"exposition\":\"" +
              jsonEscape(metricsPrometheus()) + "\"";
    } else {
      Extra = ",\"metrics\":" + metricsJson();
    }
    if (Opts.Log && Opts.Log->enabled(obs::LogLevel::Debug))
      Opts.Log->debug(obs::LogEvent("metrics").str("id", R.Id));
    Reply(okResponse(R.Id, Extra));
    return;
  }
  case Request::Method::Profile: {
    // Synchronous by design: the capture *is* the request, and blocking
    // this connection's reader for the window keeps the engine free of
    // timer plumbing. Other connections (and all pool work) proceed.
    std::ostringstream Extra;
    Extra << ",\"seconds\":" << R.ProfileSeconds << ",\"profiler_running\":"
          << (prof::profiler().running() ? "true" : "false");
    if (R.Format == "json")
      Extra << ",\"profile\":" << profileJson(R.ProfileSeconds);
    else
      Extra << ",\"collapsed\":\""
            << jsonEscape(profileCollapsed(R.ProfileSeconds)) << "\"";
    if (Opts.Log && Opts.Log->enabled(obs::LogLevel::Info))
      Opts.Log->info(obs::LogEvent("profile")
                         .str("id", R.Id)
                         .num("seconds", uint64_t(R.ProfileSeconds)));
    Reply(okResponse(R.Id, Extra.str()));
    return;
  }
  case Request::Method::Shutdown: {
    Shutdown.store(true);
    if (Opts.Log && Opts.Log->enabled(obs::LogLevel::Info))
      Opts.Log->info(obs::LogEvent("shutdown").str("id", R.Id));
    Reply(okResponse(R.Id, ",\"shutting_down\":true"));
    return;
  }
  case Request::Method::Reset: {
    std::shared_ptr<Session> S = sessionFor(R.Session);
    std::string Id = R.Id;
    size_t Shard = shardOf(R.Session);
    ShardInstruments &SI = Ops.Shards[Shard];
    SI.QueueDepth->add(1);
    Pool->post(Shard, [this, S, Id, Shard, Submitted, &SI,
                       Reply = std::move(Reply)] {
      SI.QueueDepth->add(-1);
      SI.QueueWaitUs->record(microsSince(Submitted));
      SI.Requests->inc();
      auto RunStart = std::chrono::steady_clock::now();
      S->reset();
      SI.BusyUs->inc(microsSince(RunStart));
      uint64_t ArenaBytes = S->arenaBytes();
      {
        sync::MutexLock Lock(Mutex);
        setArenaShare(S->name(), ArenaBytes);
      }
      Ops.Resets->inc();
      if (Opts.Log && Opts.Log->enabled(obs::LogLevel::Info))
        Opts.Log->info(obs::LogEvent("reset")
                           .str("id", Id)
                           .str("session", S->name())
                           .num("shard", uint64_t(Shard)));
      Reply(okResponse(Id, ",\"reset\":true"));
    });
    return;
  }
  case Request::Method::Check: {
    std::shared_ptr<Session> S = sessionFor(R.Session);
    CheckOptions CO;
    CO.MaxSuggestions = R.MaxSuggestions;
    CO.MaxOracleCalls = R.MaxOracleCalls;
    CO.WantReport = R.WantReport;
    CO.RequestId = std::move(R.Id);
    size_t Shard = shardOf(R.Session);
    ShardInstruments &SI = Ops.Shards[Shard];
    SI.QueueDepth->add(1);
    Pool->post(Shard, [this, S, Shard, Submitted, &SI,
                       Source = std::move(R.Source), CO = std::move(CO),
                       Reply = std::move(Reply)] {
      const std::string &Id = CO.RequestId;
      SI.QueueDepth->add(-1);
      SI.QueueWaitUs->record(microsSince(Submitted));
      SI.Requests->inc();
      auto RunStart = std::chrono::steady_clock::now();
      CheckOutcome Out = S->check(Source, CO);
      SI.BusyUs->inc(microsSince(RunStart));
      // Latency is submit-to-reply: queue wait included, so a backed-up
      // shard shows up in the histogram, not just in queue_wait.
      uint64_t LatencyUs = microsSince(Submitted);
      finishCheck(Id, S->name(), Shard, LatencyUs, Out);
      logCheck(Id, S->name(), Shard, LatencyUs, Out);
      Reply(renderCheckResponse(Id, Out));
    });
    return;
  }
  }
}

std::string ServerEngine::handle(const std::string &Line) {
  // Leaf-ranked: the reply callback runs either inline (no locks held)
  // or on a pool worker after the pool mutex was dropped, so this is
  // always the innermost acquisition.
  sync::Mutex M(sync::LockRank::Leaf, "server.handle");
  sync::CondVar CV;
  bool Done = false;
  std::string Result;
  submit(Line, [&](const std::string &Response) {
    // Notify under the lock: the caller returns, destroying CV, as soon
    // as it sees Done, so the notify must be over before it can look.
    sync::MutexLock Lock(M);
    Result = Response;
    Done = true;
    CV.notify_one();
  });
  sync::MutexLock Lock(M);
  while (!Done)
    CV.wait(M);
  return Result;
}

void ServerEngine::drain() { Pool->drainPosted(); }

std::string ServerEngine::renderStats() const {
  // Each member is read from its instrument, one at a time: exact when
  // the engine is idle, and at most the requests in flight apart when
  // it is not (DESIGN.md section 14).
  std::ostringstream OS;
  OS << ",\"requests\":" << Ops.Requests->value()
     << ",\"checks\":" << Ops.Checks->value()
     << ",\"resets\":" << Ops.Resets->value()
     << ",\"pings\":" << Ops.Pings->value()
     << ",\"malformed\":" << Ops.Malformed->value()
     << ",\"sessions_created\":" << Ops.SessionsCreated->value()
     << ",\"evictions\":" << Ops.Evictions->value()
     << ",\"replays\":" << Ops.Replays->value()
     << ",\"oracle_calls\":" << Ops.OracleCalls->value()
     << ",\"inference_runs\":" << Ops.InferenceRuns->value()
     << ",\"cache_hits\":" << Ops.CostVerdictHits->value()
     << ",\"warm\":{\"prefix_hits\":" << Ops.WarmPrefixHits->value()
     << ",\"seed_adoptions\":" << Ops.WarmSeedAdoptions->value()
     << "},\"cost\":{\"cpu_us\":" << Ops.CostCpuUs->value()
     << ",\"wall_us\":" << Ops.CostWallUs->value()
     << ",\"arena_bytes\":" << Ops.CostArenaBytes->value()
     << "},\"shards\":[";
  for (size_t S = 0; S < Ops.Shards.size(); ++S) {
    const ShardInstruments &SI = Ops.Shards[S];
    if (S)
      OS << ",";
    OS << "{\"shard\":" << S << ",\"requests\":" << SI.Requests->value()
       << ",\"queue_depth\":" << SI.QueueDepth->value()
       << ",\"busy_seconds\":" << double(SI.BusyUs->value()) / 1e6 << "}";
  }
  OS << "],\"sessions\":" << Ops.Sessions->value()
     << ",\"shard_count\":" << shards();
  return OS.str();
}

obs::SloTracker::Burn ServerEngine::tickSlo() {
  uint64_t NowNs = uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now()
                                    .time_since_epoch())
                                .count());
  obs::SloTracker::Burn B = Slo.tick(NowNs, *Ops.LatencyWarm);
  // Gauges are integer; publish in milli-burn (1000 = on budget). A
  // window with no traffic reads 0, matching "no budget being spent".
  Ops.SloBurnFast->set(int64_t(B.Fast.Burn * 1000.0));
  Ops.SloBurnSlow->set(int64_t(B.Slow.Burn * 1000.0));
  return B;
}

std::string ServerEngine::metricsPrometheus() {
  tickSlo();
  return Registry.renderPrometheus();
}

std::string ServerEngine::metricsJson() {
  tickSlo();
  std::ostringstream OS;
  Registry.writeJson(OS);
  return OS.str();
}

std::string ServerEngine::profileCollapsed(unsigned Seconds) {
  prof::ProfileSnapshot Snap =
      prof::profiler().captureDelta(Seconds * 1000u, &Shutdown);
  std::ostringstream OS;
  Snap.writeCollapsed(OS);
  return OS.str();
}

std::string ServerEngine::profileJson(unsigned Seconds) {
  prof::ProfileSnapshot Snap =
      prof::profiler().captureDelta(Seconds * 1000u, &Shutdown);
  std::ostringstream OS;
  Snap.writeJson(OS);
  return OS.str();
}

namespace {

/// Reads the next line of \p In into \p Line. A line longer than
/// MaxRequestLineBytes is read only until that is known: \p TooLong is
/// set and the rest of the line stays in \p In. \returns false at the
/// end of input.
bool readBoundedLine(std::istream &In, std::string &Line, bool &TooLong) {
  Line.clear();
  TooLong = false;
  std::streambuf *Src = In.rdbuf();
  bool Any = false;
  for (int C = Src->sbumpc(); C != std::char_traits<char>::eof();
       C = Src->sbumpc()) {
    Any = true;
    if (C == '\n')
      return true;
    if (Line.size() == MaxRequestLineBytes) {
      TooLong = true;
      return true;
    }
    Line.push_back(char(C));
  }
  In.setstate(std::ios::eofbit);
  return Any;
}

} // namespace

void server::serveStdio(ServerEngine &Engine, std::istream &In,
                        std::ostream &Out) {
  // One mutex serializes reply lines; responses from different sessions
  // may interleave in any order (clients correlate by id), but each
  // line is written atomically and flushed so a pipe reader never
  // blocks on a partial response.
  sync::Mutex WriteMutex(sync::LockRank::ServerWrite, "server.stdio.write");
  auto Reply = [&WriteMutex, &Out](const std::string &Line) {
    sync::MutexLock Lock(WriteMutex);
    Out << Line << "\n";
    Out.flush();
  };
  std::string Line;
  bool TooLong = false;
  while (!Engine.shutdownRequested() && readBoundedLine(In, Line, TooLong)) {
    if (TooLong) {
      // Answered before the rest of the line arrives; then dropped.
      Engine.rejectOverlongLine(Reply);
      In.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      continue;
    }
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    Engine.submit(Line, Reply);
  }
  Engine.drain();
}

// UnixSocketServer -----------------------------------------------------------

UnixSocketServer::UnixSocketServer(ServerEngine &Engine, std::string Path)
    : Engine(Engine), Path(std::move(Path)) {}

UnixSocketServer::~UnixSocketServer() { stop(); }

bool UnixSocketServer::start(std::string &Error) {
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Path;
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  // Distinguish a *stale* socket file (previous daemon died without
  // cleanup -- safe to unlink) from a *live* one (another daemon is
  // serving it -- unlinking would silently steal its address and strand
  // its clients): a probe connect succeeds only on a live socket.
  int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Probe >= 0) {
    bool Live = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr)) == 0;
    ::close(Probe);
    if (Live) {
      Error = "bind " + Path + ": address already in use "
              "(another daemon is serving this socket)";
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
  }
  ::unlink(Path.c_str()); // A stale socket from a previous run.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Error = "bind " + Path + ": " + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 16) < 0) {
    Error = "listen " + Path + ": " + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void UnixSocketServer::stop() {
  if (ListenFd < 0)
    return;
  Stopping.store(true);
  // Unblock accept(); connection readers unblock through their fds.
  ::shutdown(ListenFd, SHUT_RDWR);
  ::close(ListenFd);
  std::vector<std::thread> Threads;
  {
    sync::MutexLock Lock(ConnMutex);
    for (int Fd : LiveFds)
      ::shutdown(Fd, SHUT_RDWR);
    Threads.swap(ConnThreads);
  }
  // The acceptor may be joining threads it reaped; they are done when
  // it is.
  if (Acceptor.joinable())
    Acceptor.join();
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  ::unlink(Path.c_str());
  ListenFd = -1;
}

void UnixSocketServer::acceptLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR && !Stopping.load())
        continue;
      return;
    }
    // An exited thread keeps its stack until it is joined. Finished
    // threads have left connectionLoop, so the joins return at once, and
    // the next thread can reuse what they held.
    std::vector<std::thread> Reaped;
    {
      sync::MutexLock Lock(ConnMutex);
      Reaped = takeFinished();
    }
    for (std::thread &T : Reaped)
      T.join();
    sync::MutexLock Lock(ConnMutex);
    if (Stopping.load()) {
      ::close(Fd);
      return;
    }
    LiveFds.push_back(Fd);
    ConnThreads.emplace_back([this, Fd] { connectionLoop(Fd); });
  }
}

std::vector<std::thread> UnixSocketServer::takeFinished() {
  std::vector<std::thread> Reaped;
  for (auto It = ConnThreads.begin(); It != ConnThreads.end();) {
    if (std::find(Finished.begin(), Finished.end(), It->get_id()) !=
        Finished.end()) {
      Reaped.push_back(std::move(*It));
      It = ConnThreads.erase(It);
    } else {
      ++It;
    }
  }
  Finished.clear();
  return Reaped;
}

void UnixSocketServer::connectionLoop(int Fd) {
  // Replies may arrive from pool workers after this reader exits (the
  // client disconnected mid-request); ConnWriter's Alive-under-WriteLock
  // contract keeps those late replies off the closed fd. The session's
  // warm state is unaffected either way.
  auto Writer = std::make_shared<ConnWriter>(Fd);
  auto Reply = [Writer](const std::string &Line) { Writer->sendLine(Line); };

  // Buf holds the unfinished line. Only the bytes a read appends can
  // end it, so a line is scanned once however many reads it spans, and
  // the lines a read completes leave Buf in one erase. A line longer than
  // MaxRequestLineBytes is answered with an error as soon as it is known
  // to be too long, and its bytes are dropped through its newline
  // (Discarding), so Buf never holds more than the cap plus one read.
  std::string Buf;
  bool Discarding = false;
  char Chunk[4096];
  bool SawShutdown = false;
  while (!SawShutdown) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break;
    size_t Scan = Buf.size();
    Buf.append(Chunk, size_t(N));
    size_t LineStart = 0;
    size_t Pos;
    while ((Pos = Buf.find('\n', Scan)) != std::string::npos) {
      const size_t Begin = LineStart, Length = Pos - LineStart;
      LineStart = Scan = Pos + 1;
      if (Discarding) {
        Discarding = false; // The rejected line ends here.
        continue;
      }
      if (Length > MaxRequestLineBytes) {
        Engine.rejectOverlongLine(Reply);
        continue;
      }
      std::string Line = Buf.substr(Begin, Length);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (!Line.empty())
        Engine.submit(Line, Reply);
      if (Engine.shutdownRequested()) {
        SawShutdown = true;
        break;
      }
    }
    Buf.erase(0, LineStart);
    if (!Discarding && Buf.size() > MaxRequestLineBytes) {
      Engine.rejectOverlongLine(Reply);
      Discarding = true;
    }
    if (Discarding)
      Buf.clear();
  }
  // Let in-flight requests of this connection deliver their replies
  // before the fd goes away; other connections' work is drained too,
  // which is acceptable at editor request rates.
  Engine.drain();
  {
    // Teardown ordering: dead under the lock first, close after release.
    sync::MutexLock Lock(Writer->WriteLock);
    Writer->markDead();
  }
  {
    sync::MutexLock Lock(ConnMutex);
    LiveFds.erase(std::remove(LiveFds.begin(), LiveFds.end(), Fd),
                  LiveFds.end());
    Finished.push_back(std::this_thread::get_id());
  }
  ::close(Fd);
}
