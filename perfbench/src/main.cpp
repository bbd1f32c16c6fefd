//===- main.cpp - The repository benchmark ---------------------------------==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <oneshot-corpus|editor-replay>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--expected-dir <dir>] [--work-dir <dir>]
//           [--write-digests <file>]
//
// Sets up (several times, for a set-up median), runs one closed-loop
// workload for --seconds, checks every output against the reference, and
// prints one JSON object as its last line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. README.md in this
// directory gives the rationale of each workload and metric.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Logic.h"

#include "corpus/Generator.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace perfbench;
using namespace seminal;

namespace {

/// Figure 7's corpus size: 239 analyzed files at the default seed.
constexpr double CorpusScale = 1.5;
/// Corpora of that size replayed per run. One cohort's p99 is decided by
/// its two or three heaviest files and moves by a third from seed to seed
/// (README.md); 24 keep the seed's share of the spread small.
constexpr unsigned Cohorts = 24;
/// The corpus generator's own default; the committed digests are for it.
constexpr uint64_t DefaultSeed = 20070611;
/// Set-ups per run; setup_s is their median.
constexpr int SetupRepeats = 3;
/// Samples of each latency class a p99 needs (ten beyond it).
constexpr size_t MinClassSamples = 1000;
/// peak_rss_mb is read when this many checks have completed, so it
/// compares the same amount of work on every commit however fast the
/// program runs (the daemon keeps every session it has seen).
constexpr size_t RssAtChecks = 5000;
/// The timed phase samples the calibration kernel this often.
constexpr double CalibrationPeriodS = 0.1;
/// Calibration samples taken between set-up and the timed phase.
constexpr int CalibrationWarmup = 20;
/// The calibration kernel's mean time on the host the bounds were tuned
/// on; a run whose kernel takes this long reports its times unscaled.
constexpr double CalibrationReferenceUs = 620.0;

const Clock::time_point ProcessStart = Clock::now();

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfbench: %s\n", Message.c_str());
  std::exit(2);
}

/// The CPUs this process may use, as found at start-up.
cpu_set_t allowedCpus() {
  static const cpu_set_t Set = [] {
    cpu_set_t S;
    CPU_ZERO(&S);
    if (sched_getaffinity(0, sizeof(S), &S) != 0)
      CPU_SET(0, &S);
    return S;
  }();
  return Set;
}

int allowedCpuCount() {
  cpu_set_t Allowed = allowedCpus();
  return std::max(1, CPU_COUNT(&Allowed));
}

/// Restricts the calling thread, and every thread it creates from now
/// on, to the last CPU it may use. Both workloads run this way: one
/// closed-loop caller never has two threads runnable at once, and on a
/// virtual machine the wake-up of an idle CPU, not the program, dominated
/// their run-to-run spread (README.md).
void pinToOneCpu() {
  cpu_set_t Allowed = allowedCpus();
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu)
    if (CPU_ISSET(Cpu, &Allowed)) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      if (sched_setaffinity(0, sizeof(One), &One) != 0)
        die(std::string("sched_setaffinity: ") + std::strerror(errno));
      return;
    }
}

struct Args {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10.0;
  bool Trace = false;
  std::string ExpectedDir;
  std::string WorkDir = ".";
  std::string WriteDigests;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (I + 1 >= Argc)
      die("missing value for " + Key);
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Value;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (A.Seconds <= 0)
        die("--seconds must be positive");
    } else if (Key == "--trace") {
      A.Trace = Value == "1";
      if (Value != "0" && Value != "1")
        die("--trace takes 0 or 1");
    } else if (Key == "--expected-dir") {
      A.ExpectedDir = Value;
    } else if (Key == "--work-dir") {
      A.WorkDir = Value;
    } else if (Key == "--write-digests") {
      A.WriteDigests = Value;
    } else {
      die("unknown option " + Key);
    }
    if (End && *End)
      die("malformed value for " + Key + ": " + Value);
  }
  if (A.Workload != "oneshot-corpus" && A.Workload != "editor-replay")
    die("--workload must be oneshot-corpus or editor-replay");
  return A;
}

/// A "Vm...:" line of /proc/self/status, in MB.
double statusMb(const char *Key) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t KeyLength = std::strlen(Key);
  while (std::getline(In, Line))
    if (Line.compare(0, KeyLength, Key) == 0)
      return double(std::strtoull(Line.c_str() + KeyLength, nullptr, 10)) /
             1024.0;
  return 0.0;
}

/// Returns freed heap pages to the system and restarts VmHWM from the
/// current RSS, so the peak read later is the timed phase's own.
/// \returns the RSS the peak starts from, in MB.
double restartPeakRss() {
  malloc_trim(0);
  std::ofstream ClearRefs("/proc/self/clear_refs");
  ClearRefs << "5";
  ClearRefs.close();
  if (!ClearRefs)
    die("cannot reset the peak RSS through /proc/self/clear_refs");
  return statusMb("VmRSS:");
}

//===----------------------------------------------------------------------===//
// Host-speed calibration
//===----------------------------------------------------------------------===//
//
// The host's caches and memory are shared with other machines' work, and
// the program's speed moves with them by up to 1.7x, in regimes that last
// minutes (README.md). A kernel of fixed work, timed between checks on
// the same CPU, measures that speed. Every time metric is scaled by the
// kernel's reference time over its mean time in the run. The kernel is
// the benchmark's own code and calls nothing in the program; only the
// program's memory around it can move its time (README.md).

uint64_t nextRandom(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

/// Allocation-heavy, pointer-chasing work of the program's kind: a binary
/// search tree of 1000 nodes, a string-keyed hash map, and an ordered map
/// of growing, re-sorted vectors.
uint64_t calibrationKernel() {
  struct Node {
    int Key = 0;
    std::unique_ptr<Node> Left, Right;
  };
  uint64_t State = 88172645463325252ull, Sum = 0;
  std::unique_ptr<Node> Root;
  std::unordered_map<std::string, int> Counts;
  for (int I = 0; I < 1000; ++I) {
    int Key = int(nextRandom(State) % 100000);
    std::unique_ptr<Node> *Slot = &Root;
    while (*Slot)
      Slot = Key < (*Slot)->Key ? &(*Slot)->Left : &(*Slot)->Right;
    *Slot = std::make_unique<Node>();
    (*Slot)->Key = Key;
    std::string Name = "v";
    Name += std::to_string(Key % 997);
    Sum += ++Counts[Name];
  }
  std::map<std::string, std::vector<int>> Groups;
  for (int I = 0; I < 600; ++I) {
    std::string Name = "name";
    Name += std::to_string(nextRandom(State) % 300);
    std::vector<int> &G = Groups[Name];
    G.push_back(int(nextRandom(State) % 1000));
    if (G.size() > 3) {
      std::sort(G.begin(), G.end());
      Sum += uint64_t(G[1]);
    }
  }
  return Sum + Groups.size();
}

/// Samples the host's speed between checks. The kernel runs in the
/// benchmark's own process, on its CPU, so it sees the caches, memory and
/// page tables the program sees: over six pairs of runs, dividing by it
/// cut the run-to-run variation of one-shot throughput from 0.066 to
/// 0.033 (coefficient of variation), where a kernel in a process of its
/// own reached 0.041 and made editor-replay's worse (0.022 to 0.040).
class Calibration {
public:
  /// Times the kernel: the fastest of three runs, so a preemption does
  /// not count as a slow host.
  void sample() {
    auto Start = Clock::now();
    uint64_t Cpu0 = prof::processCpuNs();
    uint64_t Best = UINT64_MAX;
    for (int Rep = 0; Rep < 3; ++Rep) {
      auto T0 = Clock::now();
      uint64_t Result = calibrationKernel();
      // Keeps the compiler from dropping the kernel as dead code.
      asm volatile("" : : "r"(Result) : "memory");
      Best = std::min(Best, nsBetween(T0, Clock::now()));
    }
    Us.push_back(double(Best) / 1e3);
    auto End = Clock::now();
    SpentNs += nsBetween(Start, End);
    SpentCpuNs += prof::processCpuNs() - Cpu0;
    Last = End;
  }
  /// Samples when CalibrationPeriodS has passed since the last sample.
  void maybeSample() {
    if (secondsBetween(Last, Clock::now()) >= CalibrationPeriodS)
      sample();
  }
  /// Forgets the time spent so far (set-up samples are not timed-phase
  /// time), keeping the samples.
  void startTimedPhase() { SpentNs = SpentCpuNs = 0; }

  /// How much slower than the reference host this run's host was; every
  /// time metric is divided by it (rates multiplied).
  double slowdown() const {
    double Sum = 0;
    for (double X : Us)
      Sum += X;
    return Us.empty() ? 1.0
                      : Sum / double(Us.size()) / CalibrationReferenceUs;
  }
  size_t samples() const { return Us.size(); }
  double spentSeconds() const { return double(SpentNs) / 1e9; }
  uint64_t spentCpuNs() const { return SpentCpuNs; }

private:
  std::vector<double> Us;
  uint64_t SpentNs = 0, SpentCpuNs = 0;
  Clock::time_point Last = Clock::now();
};

//===----------------------------------------------------------------------===//
// The editor connection
//===----------------------------------------------------------------------===//

/// One editor connection: blocking writes, line-buffered reads.
class Connection {
public:
  explicit Connection(const std::string &Path) {
    sockaddr_un Addr{};
    if (Path.size() >= sizeof(Addr.sun_path))
      die("socket path too long: " + Path);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (Fd < 0 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      die("cannot connect to " + Path + ": " + std::strerror(errno));
  }
  ~Connection() { ::close(Fd); }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  void send(const std::string &Text) {
    size_t Off = 0;
    while (Off < Text.size()) {
      ssize_t N = ::send(Fd, Text.data() + Off, Text.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0) {
        if (N < 0 && errno == EINTR)
          continue;
        die(std::string("send: ") + std::strerror(errno));
      }
      Off += size_t(N);
    }
  }

  std::string readLine() {
    size_t Pos = Buf.find('\n', Scanned);
    while (Pos == std::string::npos) {
      Scanned = Buf.size();
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        die("the daemon closed the connection");
      Buf.append(Chunk, size_t(N));
      Pos = Buf.find('\n', Scanned);
    }
    std::string Line(Buf, 0, Pos);
    Buf.erase(0, Pos + 1);
    Scanned = 0;
    return Line;
  }

private:
  int Fd = -1;
  std::string Buf;
  size_t Scanned = 0;
};

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

struct Setup {
  Plan ThePlan;
  Properties Props;
  /// Canonical output of runSeminalOnSource per corpus file.
  std::vector<std::string> Reference;
  /// Files whose reference differs from the committed digest.
  std::vector<bool> DigestMismatch;
  /// Editor only: one request line per check of a pass.
  std::vector<RequestLine> Lines;
  std::unique_ptr<server::ServerEngine> Engine;
  std::unique_ptr<server::UnixSocketServer> Server;
  std::unique_ptr<Connection> Client;

  ~Setup() {
    // The client first, so the connection reader sees EOF; then the
    // transport joins its threads; then the engine drains its shards.
    Client.reset();
    Server.reset();
    Engine.reset();
  }
};

std::string socketPath(const Args &A) {
  return A.WorkDir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
}

std::vector<RequestLine> requestLines(const Plan &P) {
  std::vector<RequestLine> Lines;
  Lines.reserve(P.Checks.size());
  for (size_t I = 0; I < P.Checks.size(); ++I)
    Lines.push_back(
        checkRequest(I, P.Checks[I].Session, P.Sources[P.Checks[I].File]));
  return Lines;
}

/// Builds the plan and, for the editor workload, the request lines, the
/// daemon and its connection. \p Generated receives the corpus.
std::unique_ptr<Setup> setUp(const Args &A, bool Editor, Corpus &Generated) {
  auto S = std::make_unique<Setup>();
  Generated = generateCohorts(A.Seed, Cohorts, CorpusScale);
  S->ThePlan = buildPlan(Generated);
  if (Editor) {
    S->Lines = requestLines(S->ThePlan);
    S->Engine = std::make_unique<server::ServerEngine>(server::ServerOptions{});
    std::string Path = socketPath(A);
    S->Server = std::make_unique<server::UnixSocketServer>(*S->Engine, Path);
    std::string Error;
    if (!S->Server->start(Error))
      die("cannot start the daemon: " + Error);
    S->Client = std::make_unique<Connection>(Path);
  }
  return S;
}

/// The reference outputs: runSeminalOnSource on every corpus file, and
/// for the default seed the committed digests over them. Computed after
/// the timed phase, so set-up time is the system's and not the checker's.
void computeReference(const Args &A, Setup &S) {
  const std::vector<std::string> &Sources = S.ThePlan.Sources;
  S.Reference.assign(Sources.size(), std::string());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    // Checking is not timed: use every CPU even when the caller is pinned.
    cpu_set_t Allowed = allowedCpus();
    sched_setaffinity(0, sizeof(Allowed), &Allowed);
    for (size_t F; (F = Next++) < Sources.size();) {
      try {
        S.Reference[F] = renderReport(runSeminalOnSource(Sources[F]));
      } catch (const std::exception &E) {
        S.Reference[F] = std::string("reference run threw: ") + E.what();
      }
    }
  };
  std::vector<std::thread> Workers;
  for (int W = 0; W < allowedCpuCount(); ++W)
    Workers.emplace_back(Work);
  for (std::thread &T : Workers)
    T.join();
  S.DigestMismatch.assign(S.Reference.size(), false);
  if (A.Seed != DefaultSeed || A.ExpectedDir.empty())
    return;
  std::string Path =
      A.ExpectedDir + "/seed-" + std::to_string(DefaultSeed) + ".txt";
  std::vector<uint64_t> Expected;
  if (!readDigests(Path, Expected) || Expected.size() != S.Reference.size())
    die("cannot read the committed digests " + Path);
  for (size_t F = 0; F < Expected.size(); ++F)
    S.DigestMismatch[F] = digest(S.Reference[F]) != Expected[F];
}

//===----------------------------------------------------------------------===//
// Timed phase
//===----------------------------------------------------------------------===//

/// Everything the timed phase records; checked and reduced afterwards.
struct RunLog {
  std::vector<uint32_t> CheckIndex; ///< Into Plan::Checks.
  std::vector<double> LatencyUs;
  /// One-shot: the digest of each check's canonical output. Digests, not
  /// outputs, keep the benchmark's own data out of peak_rss_mb.
  std::vector<uint64_t> Digests;
  /// Editor: each check's raw reply line, parsed after the timed phase.
  std::vector<std::string> Replies;
  size_t Changed = 0, Unchanged = 0;
  double Seconds = 0; ///< Without the calibration samples.
  uint64_t CpuNs = 0; ///< Likewise.
  double BaselineRssMb = 0; ///< RSS when the timed phase started.
  double RssMb = 0;
  size_t RssChecks = 0; ///< Checks completed when RssMb was read.

  void add(const Plan &P, size_t Index, double Us) {
    CheckIndex.push_back(uint32_t(Index));
    LatencyUs.push_back(Us);
    (P.Checks[Index].Unchanged ? Unchanged : Changed) += 1;
    if (CheckIndex.size() == RssAtChecks) {
      RssMb = statusMb("VmHWM:");
      RssChecks = RssAtChecks;
    }
  }
  size_t size() const { return CheckIndex.size(); }
};

/// The timed phase lasts --seconds, and longer if a latency class still
/// lacks the samples its p99 needs (up to three times --seconds).
class Deadline {
public:
  Deadline(Clock::time_point Start, double Seconds)
      : Start(Start), Seconds(Seconds) {}
  bool over(const RunLog &Log) const {
    double Elapsed = secondsBetween(Start, Clock::now());
    if (Elapsed >= 3 * Seconds)
      return true;
    return Elapsed >= Seconds && Log.Changed >= MinClassSamples &&
           Log.Unchanged >= MinClassSamples;
  }

private:
  Clock::time_point Start;
  double Seconds;
};

/// Starts the timed phase: restarts the peak RSS and the calibration's
/// time accounts, and \returns the process CPU time at the start.
uint64_t startTimedPhase(RunLog &Log, Calibration &Cal) {
  Log.BaselineRssMb = restartPeakRss();
  Cal.startTimedPhase();
  return prof::processCpuNs();
}

void finishLog(RunLog &Log, Clock::time_point Start, uint64_t Cpu0,
               const Calibration &Cal) {
  Log.Seconds = secondsBetween(Start, Clock::now()) - Cal.spentSeconds();
  Log.CpuNs = prof::processCpuNs() - Cpu0 - Cal.spentCpuNs();
  if (Log.RssMb == 0) {
    Log.RssMb = statusMb("VmHWM:");
    Log.RssChecks = Log.size();
  }
}

RunLog runOneShot(const Setup &S, double Seconds, Calibration &Cal,
                  LayerTotals *Traced) {
  const Plan &P = S.ThePlan;
  RunLog Log;
  uint64_t Cpu0 = startTimedPhase(Log, Cal);
  auto Start = Clock::now();
  Deadline D(Start, Seconds);
  for (size_t I = 0; !D.over(Log); I = (I + 1) % P.Checks.size()) {
    const std::string &Source = P.Sources[P.Checks[I].File];
    auto T0 = Clock::now();
    std::string Out = Traced ? tracedOneShot(Source, *Traced)
                             : renderReport(runSeminalOnSource(Source));
    auto T1 = Clock::now();
    Log.add(P, I, double(nsBetween(T0, T1)) / 1e3);
    Log.Digests.push_back(digest(Out));
    Cal.maybeSample();
  }
  finishLog(Log, Start, Cpu0, Cal);
  return Log;
}

/// One client, one connection, the sessions one after another.
RunLog runEditorReplay(Setup &S, double Seconds, Calibration &Cal) {
  const Plan &P = S.ThePlan;
  Connection &C = *S.Client;
  RunLog Log;
  uint64_t Cpu0 = startTimedPhase(Log, Cal);
  auto Start = Clock::now();
  Deadline D(Start, Seconds);
  uint64_t Pass = 0;
  for (size_t I = 0; !D.over(Log); ++I) {
    if (I == P.Checks.size()) {
      I = 0;
      ++Pass;
    }
    RequestLine &L = S.Lines[I];
    stampPass(L.Text, L.PassOffset, Pass);
    auto T0 = Clock::now();
    C.send(L.Text);
    std::string Reply = C.readLine();
    auto T1 = Clock::now();
    Log.add(P, I, double(nsBetween(T0, T1)) / 1e3);
    Log.Replies.push_back(std::move(Reply));
    Cal.maybeSample();
  }
  finishLog(Log, Start, Cpu0, Cal);
  return Log;
}

//===----------------------------------------------------------------------===//
// Checking and reduction
//===----------------------------------------------------------------------===//

struct Checked {
  size_t Failed = 0;
  std::string FirstFailure;
  std::vector<Reply> Replies; ///< Editor workload only.
};

Checked checkOutputs(const Setup &S, const RunLog &Log, bool Editor) {
  Checked C;
  const Plan &P = S.ThePlan;
  auto Fail = [&](size_t I, const std::string &Why) {
    if (!C.Failed++)
      C.FirstFailure = "check " + std::to_string(I) + " (file " +
                       std::to_string(P.Checks[Log.CheckIndex[I]].File) +
                       "): " + Why;
  };
  std::vector<uint64_t> ReferenceDigest;
  for (const std::string &R : S.Reference)
    ReferenceDigest.push_back(digest(R));
  for (size_t I = 0; I < Log.size(); ++I) {
    size_t Index = Log.CheckIndex[I];
    uint32_t File = P.Checks[Index].File;
    bool Matches = false;
    if (Editor) {
      C.Replies.push_back(parseCheckReply(Log.Replies[I]));
      const Reply &R = C.Replies.back();
      if (!R.Ok) {
        Fail(I, R.Error);
        continue;
      }
      if (R.Id != std::to_string(Index)) {
        Fail(I, "reply id " + R.Id + " answers another request");
        continue;
      }
      Matches = R.Output == S.Reference[File];
    } else {
      Matches = Log.Digests[I] == ReferenceDigest[File];
    }
    if (S.DigestMismatch[File])
      Fail(I, "the reference differs from the committed digest");
    else if (!Matches)
      Fail(I, "output differs from the runSeminalOnSource reference");
  }
  return C;
}

std::vector<double> sorted(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V;
}

/// Latency of one input class, ascending.
std::vector<double> classSamples(const Plan &P, const RunLog &Log,
                                 const std::vector<double> &Us,
                                 bool Unchanged) {
  std::vector<double> Out;
  for (size_t I = 0; I < Log.size(); ++I)
    if (P.Checks[Log.CheckIndex[I]].Unchanged == Unchanged)
      Out.push_back(Us[I]);
  return sorted(std::move(Out));
}

/// The final line's metric members, in insertion order.
class MetricLine {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Out << (Out.tellp() ? ", " : "") << '"' << Name << "\": {\"value\": "
        << Buf << ", \"unit\": \"" << Unit << "\"}";
  }
  std::string str() const { return "{" + Out.str() + "}"; }

private:
  std::ostringstream Out;
};

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / double(V.size());
}

/// The end-to-end metrics, every time divided by \p Slowdown (1 for the
/// times as measured).
void addEndToEnd(MetricLine &M, const Plan &P, const RunLog &Log,
                 double SetupS, double Slowdown) {
  std::vector<double> Changed = classSamples(P, Log, Log.LatencyUs, false);
  std::vector<double> Unchanged = classSamples(P, Log, Log.LatencyUs, true);
  auto Ms = [&](const std::vector<double> &Us, unsigned PerMille) {
    return percentile(Us, PerMille) / 1e3 / Slowdown;
  };
  M.add("setup_s", SetupS / Slowdown, "s");
  M.add("ops_per_s", double(Log.size()) / Log.Seconds * Slowdown,
        "checks/s");
  M.add("changed_ms_p50", Ms(Changed, 500), "ms");
  M.add("changed_ms_p99", Ms(Changed, 990), "ms");
  M.add("unchanged_ms_p50", Ms(Unchanged, 500), "ms");
  M.add("unchanged_ms_p99", Ms(Unchanged, 990), "ms");
  M.add("cpu_ms_per_op",
        double(Log.CpuNs) / 1e6 / double(Log.size()) / Slowdown, "ms");
  M.add("peak_rss_mb", Log.RssMb, "MB");
}

//===----------------------------------------------------------------------===//
// The traced run's per-layer reduction
//===----------------------------------------------------------------------===//

double perCheck(double Total, uint64_t Checks) {
  return Checks ? Total / double(Checks) : 0.0;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

void addCoreLayers(MetricLine &M, const LayerTotals &T) {
  uint64_t N = T.Checks;
  auto Us = [&](uint64_t Ns) { return perCheck(double(Ns) / 1e3, N); };
  M.add("minicaml.parse_us", Us(T.ParseNs), "us");
  M.add("core.conventional_us", Us(T.ConventionalNs), "us");
  M.add("core.localize_calls", perCheck(double(T.LocalizeCalls), N), "count");
  M.add("core.localize_us", Us(T.LocalizeNs), "us");
  M.add("core.search_calls", perCheck(double(T.SearchCalls), N), "count");
  M.add("core.search_oracle_us", Us(T.SearchOracleNs), "us");
  M.add("core.type_of_node_calls", perCheck(double(T.TypeOfNodeCalls), N),
        "count");
  M.add("core.type_of_node_us", Us(T.TypeOfNodeNs), "us");
  std::vector<double> Calls(T.SearchCallNs.begin(), T.SearchCallNs.end());
  M.add("core.oracle_call_us_p50", median(std::move(Calls)) / 1e3, "us");
  M.add("core.inference_runs", perCheck(double(T.InferenceRuns), N), "count");
  M.add("core.inference_per_call",
        ratio(double(T.InferenceRuns), double(T.LogicalCalls)), "ratio");
  M.add("core.verdict_cache_hit_frac",
        ratio(double(T.CacheHits), double(T.CacheHits + T.CacheMisses)),
        "ratio");
  M.add("core.types_allocated", perCheck(double(T.TypesAllocated), N),
        "count");
  M.add("core.search_self_us", Us(T.searchSelfNs()), "us");
  M.add("core.rank_us", Us(T.RankNs), "us");
  M.add("core.render_us", Us(T.RenderNs), "us");
  M.add("core.lifecycle_us", Us(T.LifecycleNs), "us");
}

/// Mean time of server::parseRequest over the request lines of one pass,
/// built here so the one-shot workload need not keep them.
double protocolUs(const Plan &P) {
  std::vector<RequestLine> Lines = requestLines(P);
  size_t Parsed = 0;
  auto Start = Clock::now();
  do {
    for (const RequestLine &L : Lines) {
      server::Request R = server::parseRequest(L.Text);
      if (R.TheMethod != server::Request::Method::Check)
        die("a request line does not parse as a check");
      ++Parsed;
    }
  } while (secondsBetween(Start, Clock::now()) < 0.2);
  return double(nsBetween(Start, Clock::now())) / 1e3 / double(Parsed);
}

/// The per-session core layers of the editor workload: one pass of the
/// same sessions, replayed in process through Session::check's sequence
/// of public calls (Layers.h), each session with its own retained oracle.
LayerTotals replaySessionLayers(const Setup &S, size_t &Failed) {
  const Plan &P = S.ThePlan;
  LayerTotals T;
  for (size_t Sess = 0; Sess < P.sessions(); ++Sess) {
    auto Start = Clock::now();
    std::unique_ptr<CheckpointedOracle> Oracle = makeSessionOracle();
    Metrics SessionMetrics;
    T.LifecycleNs += nsBetween(Start, Clock::now());
    for (size_t I = P.SessionStart[Sess]; I < P.SessionStart[Sess + 1]; ++I) {
      uint32_t File = P.Checks[I].File;
      if (tracedCheck(*Oracle, P.Sources[File], &SessionMetrics, T) !=
          S.Reference[File])
        ++Failed;
    }
    auto Release = Clock::now();
    Oracle.reset();
    T.LifecycleNs += nsBetween(Release, Clock::now());
  }
  return T;
}

/// The "stats" reply of the daemon.
json::Value daemonStats(Setup &S) {
  Connection &C = *S.Client;
  C.send("{\"method\":\"stats\",\"id\":\"stats\"}\n");
  json::ParseResult R = json::parse(C.readLine());
  if (!R.ok() || !R.Doc->getBool("ok"))
    die("the stats request failed");
  return *R.Doc;
}

/// What the server layer did, from the daemon's replies and its final
/// "stats" reply. Default-constructed, it is the one-shot workload's
/// server layer, which does no work: every server metric is then 0.
struct ServerView {
  std::vector<double> SessionUs; ///< Per logged check; empty without one.
  double CpuUs = 0, OracleCalls = 0, InferenceRuns = 0; ///< Totals.
  double PrefixHits = 0, VerdictReuses = 0, SeedAdoptions = 0,
         ConvMemoHits = 0;
  double CacheHitFrac = 0;
  double ShardImbalance = 0; ///< Max / mean shard busy time.
  double SessionsCreated = 0;
  double ProtocolUs = 0;
};

ServerView viewReplies(const std::vector<Reply> &Replies,
                       const json::Value &Stats, double ProtocolUs) {
  ServerView V;
  for (const Reply &R : Replies) {
    V.SessionUs.push_back(double(R.WallNs) / 1e3);
    V.CpuUs += double(R.CpuNs) / 1e3;
    V.OracleCalls += double(R.OracleCalls);
    V.InferenceRuns += double(R.InferenceRuns);
    V.PrefixHits += double(R.PrefixHits);
    V.VerdictReuses += double(R.VerdictReuses);
    V.SeedAdoptions += double(R.SeedAdoptions);
    V.ConvMemoHits += double(R.ConvMemoHits);
  }
  double Hits = double(Stats.getInt("cache_hits"));
  V.CacheHitFrac = ratio(Hits, Hits + double(Stats.getInt("cache_misses")));
  double MaxBusy = 0, SumBusy = 0;
  size_t Shards = 0;
  if (const json::Value *Array = Stats.member("shards"))
    for (const json::Value &Shard : Array->arrayValue()) {
      const json::Value *B = Shard.member("busy_seconds");
      double Busy = B && B->isNumber() ? B->numberValue() : 0.0;
      MaxBusy = std::max(MaxBusy, Busy);
      SumBusy += Busy;
      ++Shards;
    }
  V.ShardImbalance = ratio(MaxBusy, Shards ? SumBusy / double(Shards) : 0.0);
  V.SessionsCreated = double(Stats.getInt("sessions_created"));
  V.ProtocolUs = ProtocolUs;
  return V;
}

void addServerLayers(MetricLine &M, const Plan &P, const RunLog &Log,
                     const ServerView &V) {
  size_t N = Log.size();
  std::vector<double> Changed, Unchanged, Wait;
  if (V.SessionUs.size() == N) {
    Changed = classSamples(P, Log, V.SessionUs, false);
    Unchanged = classSamples(P, Log, V.SessionUs, true);
    for (size_t I = 0; I < N; ++I)
      Wait.push_back(Log.LatencyUs[I] - V.SessionUs[I]);
    Wait = sorted(std::move(Wait));
  }
  M.add("server.session_us_changed", mean(Changed), "us");
  M.add("server.session_us_unchanged", mean(Unchanged), "us");
  M.add("server.session_cpu_us", perCheck(V.CpuUs, N), "us");
  M.add("server.oracle_calls", perCheck(V.OracleCalls, N), "count");
  M.add("server.inference_runs", perCheck(V.InferenceRuns, N), "count");
  M.add("server.prefix_hits", perCheck(V.PrefixHits, N), "count");
  M.add("server.verdict_reuses", perCheck(V.VerdictReuses, N), "count");
  M.add("server.seed_adoptions", perCheck(V.SeedAdoptions, N), "count");
  M.add("server.conv_memo_hits", perCheck(V.ConvMemoHits, N), "count");
  M.add("server.warm_reuse_frac", ratio(V.VerdictReuses, V.OracleCalls),
        "ratio");
  M.add("server.verdict_cache_hit_frac", V.CacheHitFrac, "ratio");
  M.add("server.wait_us_p50", percentile(Wait, 500), "us");
  M.add("server.wait_us_p99", percentile(Wait, 990), "us");
  M.add("server.protocol_us", V.ProtocolUs, "us");
  M.add("server.shard_busy_imbalance", V.ShardImbalance, "ratio");
  M.add("server.sessions_created", perCheck(V.SessionsCreated, N), "count");
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

void printProperties(const std::string &Workload, const Properties &P) {
  std::printf("# properties {\"workload\": \"%s\", \"files\": %zu, "
              "\"checks_per_pass\": %zu, \"sessions_per_pass\": %zu, "
              "\"unchanged_share\": %.4f, \"multi_error_share\": %.4f, "
              "\"mean_decls\": %.2f}\n",
              Workload.c_str(), P.Files, P.ChecksPerPass, P.SessionsPerPass,
              P.UnchangedShare, P.MultiErrorShare, P.MeanDecls);
}

void printSamples(const RunLog &Log) {
  for (bool Unchanged : {false, true}) {
    size_t N = Unchanged ? Log.Unchanged : Log.Changed;
    unsigned Top = highestResolvedPerMille(N);
    std::printf("# samples %s=%zu, highest resolved percentile p%g%s\n",
                Unchanged ? "unchanged" : "changed", N, Top / 10.0,
                resolves(N, 990) ? "" : " (p99 NOT resolved)");
  }
}

int writeDigests(const Args &A) {
  Plan P = buildPlan(generateCohorts(A.Seed, Cohorts, CorpusScale));
  std::ofstream Out(A.WriteDigests);
  Out << "# perfbench reference digests: seed " << A.Seed << ", "
      << Cohorts << " cohorts at scale " << CorpusScale
      << ", FNV-1a 64 of the canonical output per file\n";
  for (size_t F = 0; F < P.Sources.size(); ++F) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  (unsigned long long)digest(
                      renderReport(runSeminalOnSource(P.Sources[F]))));
    Out << F << " " << Buf << "\n";
  }
  return Out ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (!A.WriteDigests.empty())
    return writeDigests(A);

  bool Editor = A.Workload == "editor-replay";
  pinToOneCpu();

  // Set up several times; the first one counts from process start, and
  // the last one is kept for the timed phase.
  std::vector<double> SetupS;
  std::unique_ptr<Setup> S;
  Corpus TheCorpus;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    S.reset();
    auto Start = Rep ? Clock::now() : ProcessStart;
    S = setUp(A, Editor, TheCorpus);
    SetupS.push_back(secondsBetween(Start, Clock::now()));
  }
  const Plan &P = S->ThePlan;
  S->Props = describe(TheCorpus, P);
  TheCorpus = Corpus();

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace));
  printProperties(A.Workload, S->Props);

  Calibration Cal;
  for (int I = 0; I < CalibrationWarmup; ++I)
    Cal.sample();
  LayerTotals OneShotLayers;
  RunLog Log = Editor ? runEditorReplay(*S, A.Seconds, Cal)
                      : runOneShot(*S, A.Seconds, Cal,
                                   A.Trace ? &OneShotLayers : nullptr);
  computeReference(A, *S);
  Checked C = checkOutputs(*S, Log, Editor);
  printSamples(Log);

  double Slowdown = Cal.slowdown();
  MetricLine E2E, Measured;
  addEndToEnd(E2E, P, Log, median(SetupS), Slowdown);
  addEndToEnd(Measured, P, Log, median(SetupS), 1.0);
  std::printf("# calibration slowdown=%.4f over %zu samples (kernel mean "
              "%.1f us, reference %.1f us; %.2f s of the timed phase)\n",
              Slowdown, Cal.samples(), Slowdown * CalibrationReferenceUs,
              CalibrationReferenceUs, Cal.spentSeconds());
  std::printf("# measured end-to-end %s\n", Measured.str().c_str());

  MetricLine Layers;
  if (A.Trace) {
    // Everything below runs after the timed phase.
    if (Editor) {
      json::Value Stats = daemonStats(*S);
      size_t ReplayFailed = 0;
      LayerTotals SessionLayers = replaySessionLayers(*S, ReplayFailed);
      if (ReplayFailed && !C.Failed)
        C.FirstFailure = "the in-process session replay differs from the "
                         "reference";
      C.Failed += ReplayFailed;
      addCoreLayers(Layers, SessionLayers);
      addServerLayers(Layers, P, Log,
                      viewReplies(C.Replies, Stats, protocolUs(P)));
    } else {
      addCoreLayers(Layers, OneShotLayers);
      addServerLayers(Layers, P, Log, ServerView());
    }
    std::printf("# traced end-to-end %s\n", E2E.str().c_str());
  }

  std::printf("# memory peak_rss_mb=%.1f after %zu checks, from %.1f MB "
              "(the benchmark's data and the program's image) at the start "
              "of the timed phase; %.1f at the end\n",
              Log.RssMb, Log.RssChecks, Log.BaselineRssMb,
              statusMb("VmHWM:"));
  double FailedFrac = double(C.Failed) / double(Log.size());
  std::printf("# failed_frac %.6f (%zu of %zu checks)%s%s\n", FailedFrac,
              C.Failed, Log.size(), C.Failed ? "; first: " : "",
              C.FirstFailure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              C.Failed ? "false" : "true", Log.size(), C.Failed,
              (A.Trace ? Layers : E2E).str().c_str());
  std::fflush(stdout);
  return C.Failed ? 1 : 0;
}
