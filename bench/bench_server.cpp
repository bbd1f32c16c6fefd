//===- bench_server.cpp - Search-as-a-service latency and throughput ------==//
//
// Measures what the daemon exists for (DESIGN.md section 13): the
// editor loop. Three series:
//
//   * cold-request latency: every check against a freshly reset
//     session, the one-shot seminal_cli cost.
//   * warm edit-resubmit latency: the same program resubmitted to a
//     live session after an edit below the failing decl -- the session
//     replays the conventional error from its memo, serves every
//     localization probe from the prefix it already proved and
//     re-adopts the seed checkpoint, so only the search's own candidate
//     checks run inference against it.
//   * sustained throughput: warm edit-resubmits per second on 1 to
//     nproc workers, one session per shard (names chosen through
//     ServerEngine::shardOf, so no shard idles), request lines built
//     before the clock starts, each point timed for at least 0.5 s.
//     These rows are reported, not gated: they are the only multi-CPU
//     measure of the daemon's request path, and they move with the host.
//
// Warm answers are compared against cold one-shot runs of the same
// source; any divergence is a bug (suggestion_mismatches in the JSON,
// gated to zero). The speedup ratio is measured within one process on
// one machine, so it is hardware-independent and gated against
// bench/BASELINE_server.json (floor: max(10x, 50% of baseline)).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Message.h"
#include "core/Seminal.h"
#include "server/Server.h"
#include "server/Session.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace seminal;
using namespace seminal::bench;
using namespace seminal::server;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t Index = size_t(P * double(Samples.size() - 1) + 0.5);
  return Samples[std::min(Index, Samples.size() - 1)];
}

/// The benchmark program: decls whose inference cost dwarfs their parse
/// cost, one ill-typed decl near the end, and a trailing decl the
/// "editor" keeps touching. Edits below the failing decl are the best
/// case for session retention and the common case in practice (the user
/// fixes code after the first error).
///
/// The cost asymmetry comes from let-polymorphism: d<i>'s inferred type
/// is a pair tree that doubles per link, the classic HM worst case, so
/// the chain costs orders of magnitude more to infer than to parse.
/// Depth 4 is calibrated to tens of milliseconds of inference -- depth
/// 5 is minutes on this engine -- and stays fixed while --scale only
/// adds cheap filler decls. That keeps the warm path (which skips all
/// inference) honest: it still pays the full parse and key-compare cost
/// of every decl.
std::string makeProgram(size_t Decls, int TailValue) {
  const size_t Depth = 4;
  std::string Out;
  size_t Emitted = 0;
  // Independent chains of Depth+1 decls each, so inference cost grows
  // linearly with the decl count while staying exponential per chain.
  for (size_t Chain = 0; Emitted + 3 < Decls; ++Chain) {
    std::string C = "c" + std::to_string(Chain) + "_";
    Out += "let " + C + "0 x = (x, x)\n";
    ++Emitted;
    for (size_t I = 1; I <= Depth && Emitted + 3 < Decls; ++I, ++Emitted) {
      std::string N = std::to_string(I), P = std::to_string(I - 1);
      Out += "let " + C + N + " x = " + C + P + " (" + C + P + " x)\n";
    }
  }
  Out += "let helper n = n + 1\n";
  Out += "let broken = helper true\n"; // bool where int expected
  Out += "let tail = " + std::to_string(TailValue) + "\n";
  return Out;
}

std::vector<std::string> renderedMessages(const CheckOutcome &O) {
  std::vector<std::string> Out;
  for (const auto &S : O.Suggestions)
    Out.push_back(S.Message);
  return Out;
}

/// Cold reference: a one-shot runSeminal of the same source, rendered
/// the way Session renders (same MessageOptions defaults).
std::vector<std::string> oneShotMessages(const std::string &Source) {
  SeminalOptions Opts;
  SeminalReport R = runSeminalOnSource(Source, Opts);
  std::vector<std::string> Out;
  for (const Suggestion &S : R.Suggestions)
    Out.push_back(renderSuggestion(S, Opts.Message));
  return Out;
}

struct ThroughputRow {
  unsigned Threads = 0;
  size_t Requests = 0;
  double Seconds = 0.0;
  double Rps = 0.0;
};

/// The first names "s0", "s1", ... that put one session on every shard
/// of \p Engine.
std::vector<std::string> onePerShard(const ServerEngine &Engine) {
  std::vector<bool> Taken(Engine.shards(), false);
  std::vector<std::string> Names;
  for (size_t I = 0; Names.size() < Taken.size(); ++I) {
    std::string Name = "s" + std::to_string(I);
    size_t Shard = Engine.shardOf(Name);
    if (!Taken[Shard]) {
      Taken[Shard] = true;
      Names.push_back(Name);
    }
  }
  return Names;
}

ThroughputRow measureThroughput(unsigned Threads, size_t Decls) {
  constexpr double MinSeconds = 0.5;
  constexpr size_t RoundsPerBatch = 8;
  ServerOptions SO;
  SO.Threads = Threads;
  ServerEngine Engine(SO);

  // Lines[T][S]: session S's check of the program with tail T. Rounds
  // alternate tails 1 and 2, so every timed request is an edit of the
  // session's previous one (a warm resubmit, never a replay).
  std::vector<std::string> Sessions = onePerShard(Engine);
  std::vector<std::string> Lines[3];
  for (int Tail = 0; Tail < 3; ++Tail) {
    std::string Escaped = jsonEscape(makeProgram(Decls, Tail));
    for (const std::string &Session : Sessions)
      Lines[Tail].push_back("{\"method\":\"check\",\"id\":1,\"session\":\"" +
                            Session + "\",\"source\":\"" + Escaped + "\"}");
  }
  auto Discard = [](const std::string &) {};

  // Prime every session (unmeasured): the steady state of an editor
  // fleet is warm.
  for (const std::string &Line : Lines[0])
    Engine.submit(Line, Discard);
  Engine.drain();

  ThroughputRow Row;
  Row.Threads = Threads;
  size_t Rounds = 0;
  Clock::time_point Start = Clock::now();
  do {
    for (size_t B = 0; B < RoundsPerBatch; ++B, ++Rounds)
      for (const std::string &Line : Lines[1 + Rounds % 2])
        Engine.submit(Line, Discard);
    Engine.drain();
  } while (msSince(Start) < MinSeconds * 1000.0);
  Row.Seconds = msSince(Start) / 1000.0;
  Row.Requests = Rounds * Sessions.size();
  Row.Rps = double(Row.Requests) / Row.Seconds;
  return Row;
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Opts = parseDriverArgs(Argc, Argv);
  const size_t Decls = std::max<size_t>(10, size_t(120 * Opts.Scale));
  const size_t Iterations = std::max<size_t>(6, size_t(20 * Opts.Scale));

  header("Search-as-a-service: cold vs warm edit-resubmit (" +
         std::to_string(Decls) + " decls, " + std::to_string(Iterations) +
         " iterations)");

  // Reference answers from cold one-shot runs, for the identity check.
  std::vector<std::string> Expected[2] = {
      oneShotMessages(makeProgram(Decls, 1)),
      oneShotMessages(makeProgram(Decls, 2)),
  };
  size_t Mismatches = 0;

  // Cold series: reset before every check, so each request pays the
  // full one-shot cost inside the same Session machinery the warm
  // series uses (identical rendering and bookkeeping overhead).
  Session Cold("cold", SessionConfig());
  std::vector<double> ColdMs;
  uint64_t ColdInferenceRuns = 0;
  for (size_t I = 0; I < Iterations; ++I) {
    Cold.reset();
    std::string Source = makeProgram(Decls, int(I % 2) + 1);
    Clock::time_point Start = Clock::now();
    CheckOutcome Out = Cold.check(Source, CheckOptions());
    ColdMs.push_back(msSince(Start));
    ColdInferenceRuns += Out.InferenceRuns;
    if (renderedMessages(Out) != Expected[I % 2])
      ++Mismatches;
  }

  // Warm series: one live session, primed once, then edit-resubmits
  // that only touch the decl after the error.
  Session Warm("warm", SessionConfig());
  Warm.check(makeProgram(Decls, 0), CheckOptions());
  std::vector<double> WarmMs;
  uint64_t WarmInferenceRuns = 0;
  uint64_t WarmPrefixHits = 0, WarmSeedAdoptions = 0, WarmConvMemoHits = 0;
  for (size_t I = 0; I < Iterations; ++I) {
    std::string Source = makeProgram(Decls, int(I % 2) + 1);
    Clock::time_point Start = Clock::now();
    CheckOutcome Out = Warm.check(Source, CheckOptions());
    WarmMs.push_back(msSince(Start));
    WarmInferenceRuns += Out.InferenceRuns;
    WarmPrefixHits += Out.Accel.SessionPrefixHits;
    WarmSeedAdoptions += Out.Accel.SessionSeedAdoptions;
    WarmConvMemoHits += Out.Accel.SessionConvMemoHits;
    if (renderedMessages(Out) != Expected[I % 2])
      ++Mismatches;
  }

  double ColdP50 = percentile(ColdMs, 0.50), ColdP95 = percentile(ColdMs, 0.95);
  double WarmP50 = percentile(WarmMs, 0.50), WarmP95 = percentile(WarmMs, 0.95);
  double Speedup = WarmP50 > 0 ? ColdP50 / WarmP50 : 0.0;

  std::printf("%-28s p50 %9.3f ms   p95 %9.3f ms   inference runs %llu\n",
              "cold request", ColdP50, ColdP95,
              (unsigned long long)ColdInferenceRuns);
  std::printf("%-28s p50 %9.3f ms   p95 %9.3f ms   inference runs %llu\n",
              "warm edit-resubmit", WarmP50, WarmP95,
              (unsigned long long)WarmInferenceRuns);
  std::printf("%-28s %9.1fx   (suggestion mismatches: %zu)\n",
              "warm speedup (p50)", Speedup, Mismatches);
  std::printf("%-28s prefix hits %llu, seed adoptions %llu, conv memo "
              "hits %llu\n",
              "warm reuse totals", (unsigned long long)WarmPrefixHits,
              (unsigned long long)WarmSeedAdoptions,
              (unsigned long long)WarmConvMemoHits);

  header("Sustained warm throughput (one session per shard)");
  std::vector<ThroughputRow> Throughput;
  const unsigned MaxThreads = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned Threads = 1; Threads <= MaxThreads; ++Threads) {
    ThroughputRow Row = measureThroughput(Threads, Decls);
    Throughput.push_back(Row);
    std::printf("%u thread(s): %zu requests in %.3f s  =  %8.1f req/s\n",
                Row.Threads, Row.Requests, Row.Seconds, Row.Rps);
  }

  if (Mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu warm responses diverged from cold one-shot "
                 "runs\n",
                 Mismatches);
  }

  if (!Opts.JsonPath.empty()) {
    std::ofstream Out(Opts.JsonPath);
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", Opts.JsonPath.c_str());
      return 2;
    }
    Out << "{\n"
        << "  \"bench\": \"server\",\n"
        << "  \"scale\": " << Opts.Scale << ",\n"
        << "  \"seed\": " << Opts.Seed << ",\n"
        << "  \"decls\": " << Decls << ",\n"
        << "  \"iterations\": " << Iterations << ",\n"
        << "  \"cold_p50_ms\": " << ColdP50 << ",\n"
        << "  \"cold_p95_ms\": " << ColdP95 << ",\n"
        << "  \"warm_p50_ms\": " << WarmP50 << ",\n"
        << "  \"warm_p95_ms\": " << WarmP95 << ",\n"
        << "  \"speedup_warm\": " << Speedup << ",\n"
        << "  \"suggestion_mismatches\": " << Mismatches << ",\n"
        << "  \"cold_inference_runs\": " << ColdInferenceRuns << ",\n"
        << "  \"warm_inference_runs\": " << WarmInferenceRuns << ",\n"
        << "  \"warm_prefix_hits\": " << WarmPrefixHits << ",\n"
        << "  \"warm_seed_adoptions\": " << WarmSeedAdoptions << ",\n"
        << "  \"warm_conv_memo_hits\": " << WarmConvMemoHits << ",\n"
        << "  \"throughput\": [";
    for (size_t I = 0; I < Throughput.size(); ++I) {
      const ThroughputRow &Row = Throughput[I];
      Out << (I ? "," : "") << "\n    {\"threads\": " << Row.Threads
          << ", \"requests\": " << Row.Requests
          << ", \"seconds\": " << Row.Seconds << ", \"rps\": " << Row.Rps
          << "}";
    }
    Out << "\n  ]\n}\n";
  }
  return Mismatches == 0 ? 0 : 1;
}
