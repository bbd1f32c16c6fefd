//===- Server.h - Search-as-a-service engine and transports -----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon behind `seminal_serverd` (DESIGN.md section 13). A
/// ServerEngine owns the session table and a ThreadPool; every request
/// line is parsed on the submitting thread, then routed:
///
///   * check/reset are posted to the owning session's *shard* -- shard =
///     hash(session name) mod workers, served FIFO by exactly one worker
///     (support/ThreadPool.h's post()). Requests of one session never
///     run concurrently, so Session needs no locks and warm-state reuse
///     is deterministic; requests of different sessions proceed in
///     parallel without contention.
///   * ping/stats/shutdown are answered inline (they only read the ops
///     registry or flip the shutdown flag).
///
/// Replies are delivered through a callback, possibly on a pool worker;
/// transports serialize writes themselves. The engine never drops a
/// request silently: malformed lines get an error reply and are counted
/// in seminal_malformed_total.
///
/// The engine's OpsRegistry is the only store of its counters: the
/// stats verb renders each member from the instrument /metrics serves
/// (DESIGN.md section 14).
///
/// Transports: serveStdio() pumps one istream/ostream pair (the
/// daemon's --stdio mode and the socketpair-driven tests);
/// UnixSocketServer accepts editor connections on a Unix domain socket,
/// one reader thread per connection, replies serialized per connection.
/// A client disconnecting mid-request only loses its reply; the session
/// and its warm state survive for the reconnect.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SERVER_SERVER_H
#define SEMINAL_SERVER_SERVER_H

#include "obs/Log.h"
#include "obs/OpsRegistry.h"
#include "obs/Slo.h"
#include "server/Session.h"
#include "support/Sync.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace seminal {
namespace server {

struct ServerOptions {
  /// Worker (= shard) count; 0 picks hardware concurrency.
  unsigned Threads = 0;
  /// Configuration applied to every session.
  SessionConfig Session;

  // Observability (DESIGN.md section 14); everything defaults to off
  // and costs one branch when off. ---------------------------------
  /// Structured per-request log lines (not owned; must outlive the
  /// engine). Null = no logging.
  obs::Logger *Log = nullptr;
  /// Tail-sampled slow-request tracing: requests slower than
  /// TraceSlowMs milliseconds export their trace into this ring (not
  /// owned). Negative threshold or null ring = off. Copied into the
  /// SessionConfig handed to every session.
  obs::SlowTraceRing *SlowTraces = nullptr;
  double TraceSlowMs = -1.0;
  /// Latency SLO for the burn-rate gauges (DESIGN.md section 16): the
  /// objective is evaluated against the *warm* request-latency
  /// histogram (cold first-contact requests pay oracle warmup by
  /// design and would drown the signal). Always on; the tracker only
  /// runs on scrape/stats paths, so idle cost is zero.
  obs::SloConfig Slo;
};

/// The longest request line a transport reads, in bytes. A longer line
/// is answered with a malformed-request error and its bytes are dropped
/// up to the next newline, so no client can grow a connection's buffer
/// past the cap plus one read. Sources from editors and the corpus are
/// thousands of times smaller.
constexpr size_t MaxRequestLineBytes = size_t(8) << 20;

class ServerEngine {
public:
  explicit ServerEngine(const ServerOptions &Opts = {});
  ~ServerEngine();

  /// A reply sink; invoked exactly once per submitted line with one
  /// response line (no trailing newline), possibly on a pool worker.
  using ReplyFn = std::function<void(const std::string &)>;

  /// Routes one request line (see file comment).
  void submit(const std::string &Line, ReplyFn Reply);

  /// Answers a line the transport dropped for exceeding
  /// MaxRequestLineBytes: a malformed-request error, counted with the
  /// other malformed requests.
  void rejectOverlongLine(const ReplyFn &Reply);

  /// Synchronous convenience for tests and simple clients: submits,
  /// waits for every in-flight request to finish, returns the reply.
  std::string handle(const std::string &Line);

  /// Blocks until every posted request has been served.
  void drain();

  /// A shutdown request was received; transports should stop accepting
  /// input, drain and exit.
  bool shutdownRequested() const { return Shutdown.load(); }

  unsigned shards() const;
  /// The shard a session name pins to (exposed for tests).
  size_t shardOf(const std::string &SessionName) const;

  /// The live instrument registry (the "metrics" and "stats" verbs, the
  /// HTTP endpoint and tests read it; the engine updates it per
  /// request).
  obs::OpsRegistry &registry() { return Registry; }
  /// Prometheus text exposition of the registry. Ticks the SLO tracker
  /// first, so scraped burn-rate gauges are current as of the scrape.
  std::string metricsPrometheus();
  /// Compact JSON snapshot of the registry (also ticks the tracker).
  std::string metricsJson();

  /// Advances the SLO snapshot ring against the warm-latency histogram
  /// and publishes the burn-rate gauges. Called by the render paths;
  /// exposed for tests and for transports that scrape on a timer.
  obs::SloTracker::Burn tickSlo();

  /// Captures a profiler window of \p Seconds (blocking; aborts early
  /// on shutdown) and renders it. Collapsed = flamegraph.pl folded
  /// stacks; JSON = the full snapshot object. Works whether or not the
  /// profiler is running (a stopped profiler yields an empty window).
  std::string profileCollapsed(unsigned Seconds);
  std::string profileJson(unsigned Seconds);

private:
  /// Cached instrument pointers: resolved once at construction, so hot
  /// paths never touch the registry map.
  struct ShardInstruments {
    obs::OpsCounter *Requests = nullptr;
    obs::OpsCounter *BusyUs = nullptr;
    obs::OpsCounter *CpuUs = nullptr;
    obs::OpsGauge *QueueDepth = nullptr;
    LogHistogram *QueueWaitUs = nullptr;
  };
  struct Instruments {
    obs::OpsCounter *Requests = nullptr;
    obs::OpsCounter *Checks = nullptr;
    obs::OpsCounter *Resets = nullptr;
    obs::OpsCounter *Pings = nullptr;
    obs::OpsCounter *Malformed = nullptr;
    obs::OpsCounter *SessionsCreated = nullptr;
    obs::OpsCounter *Evictions = nullptr;
    obs::OpsCounter *Replays = nullptr;
    obs::OpsCounter *OracleCalls = nullptr;
    obs::OpsCounter *InferenceRuns = nullptr;
    /// seminal_warm_hits_total by kind: the reply's "warm" counters.
    obs::OpsCounter *WarmPrefixHits = nullptr;
    obs::OpsCounter *WarmSeedAdoptions = nullptr;
    obs::OpsCounter *SlowTraces = nullptr;
    obs::OpsGauge *Sessions = nullptr;
    obs::OpsGauge *ArenaBytes = nullptr;
    // Cost-ledger families (DESIGN.md section 16). Counters are flows
    // summed across checks; retained bytes are a level (a gauge). The
    // ledger's oracle calls and inference runs are the counters above.
    obs::OpsCounter *CostCpuUs = nullptr;
    obs::OpsCounter *CostWallUs = nullptr;
    obs::OpsCounter *CostVerdictHits = nullptr;
    obs::OpsGauge *CostArenaBytes = nullptr;
    /// Burn rates in milli-units (gauges are int64; 1000 = burning the
    /// error budget exactly at the sustainable rate).
    obs::OpsGauge *SloBurnFast = nullptr;
    obs::OpsGauge *SloBurnSlow = nullptr;
    /// Slowest-request exemplar: the latency gauge pairs with an info
    /// series whose labels name the request (sanitized id, session,
    /// shard), so dashboards can link a spike to a concrete request.
    obs::OpsGauge *SlowestLatencyUs = nullptr;
    obs::OpsInfo *SlowestInfo = nullptr;
    LogHistogram *LatencyCold = nullptr;
    LogHistogram *LatencyWarm = nullptr;
    LogHistogram *RequestCpuUs = nullptr;
    LogHistogram *OracleCallsPerRequest = nullptr;
    std::vector<ShardInstruments> Shards;
  };

  std::shared_ptr<Session> sessionFor(const std::string &Name);
  /// Sets one session's share of the seminal_arena_bytes gauge.
  void setArenaShare(const std::string &SessionName, uint64_t Bytes)
      SEMINAL_REQUIRES(Mutex);
  void finishCheck(const std::string &Id, const std::string &SessionName,
                   size_t Shard, uint64_t LatencyUs, const CheckOutcome &Out);
  void logCheck(const std::string &Id, const std::string &SessionName,
                size_t Shard, uint64_t LatencyUs, const CheckOutcome &Out);
  /// The stats reply's members after "ok", read from the instruments.
  std::string renderStats() const;

  /// Immutable after construction (Opts, Pool, Registry, the cached
  /// instrument pointers in Ops); the instruments themselves are
  /// lock-free atomics. Mutex guards the session table, the retained
  /// shares and the slowest-request exemplar, and no counter.
  ServerOptions Opts;
  std::unique_ptr<ThreadPool> Pool;
  obs::OpsRegistry Registry;
  obs::SloTracker Slo;
  Instruments Ops;
  mutable sync::Mutex Mutex{sync::LockRank::ServerEngine, "server.engine"};
  std::unordered_map<std::string, std::shared_ptr<Session>> Sessions
      SEMINAL_GUARDED_BY(Mutex);
  /// Last reported retained bytes per session, so the process-wide
  /// seminal_arena_bytes gauge can track the sum incrementally.
  std::unordered_map<std::string, uint64_t> ArenaBySession
      SEMINAL_GUARDED_BY(Mutex);
  uint64_t TotalArenaBytes SEMINAL_GUARDED_BY(Mutex) = 0;
  /// High-water latency for the slowest-request exemplar; the gauge and
  /// info labels are republished only when a check beats this.
  uint64_t SlowestLatencyUs SEMINAL_GUARDED_BY(Mutex) = 0;
  std::atomic<bool> Shutdown{false};
};

/// Builds the full JSON response line for one check outcome (shared by
/// the engine and the tests that assert response shape).
std::string renderCheckResponse(const std::string &Id, const CheckOutcome &O);

/// Pumps a JSONL request stream until EOF or shutdown: reads lines from
/// \p In, writes reply lines to \p Out (serialized, flushed per line).
/// Returns when the stream ends or a shutdown request was served, after
/// draining in-flight requests.
void serveStdio(ServerEngine &Engine, std::istream &In, std::ostream &Out);

/// Unix-domain-socket transport. start() binds, listens and spawns the
/// accept thread; stop() (and the destructor) closes every connection
/// and joins. Connections are independent JSONL streams into the shared
/// engine, so two editors can address the same session by name. The
/// accept thread joins the threads of finished connections before it
/// starts the next one, so threads stay bounded by the connections
/// open at once, not the connections served.
class UnixSocketServer {
public:
  UnixSocketServer(ServerEngine &Engine, std::string Path);
  ~UnixSocketServer();

  /// \returns false with \p Error set when the socket cannot be bound.
  bool start(std::string &Error);
  void stop();

private:
  void acceptLoop();
  void connectionLoop(int Fd);
  /// Moves the threads of finished connections out of ConnThreads for
  /// the caller to join.
  std::vector<std::thread> takeFinished() SEMINAL_REQUIRES(ConnMutex);

  ServerEngine &Engine;
  std::string Path;
  /// Written by start()/stop() only (callers serialize those); read by
  /// the accept thread, which both calls unblock through shutdown(2).
  int ListenFd = -1;
  std::atomic<bool> Stopping{false};
  std::thread Acceptor;
  sync::Mutex ConnMutex{sync::LockRank::ServerConn, "server.conn"};
  std::vector<std::thread> ConnThreads SEMINAL_GUARDED_BY(ConnMutex);
  /// Connection threads that have left connectionLoop, not yet joined.
  std::vector<std::thread::id> Finished SEMINAL_GUARDED_BY(ConnMutex);
  std::vector<int> LiveFds SEMINAL_GUARDED_BY(ConnMutex);
};

} // namespace server
} // namespace seminal

#endif // SEMINAL_SERVER_SERVER_H
