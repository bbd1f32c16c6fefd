//===- Layers.cpp - Per-layer timing from outside the program --------------==//

#include "Layers.h"

#include "Logic.h"

#include "core/Message.h"
#include "core/Ranker.h"
#include "core/Seminal.h"
#include "minicaml/Parser.h"
#include "server/Session.h"

#include <algorithm>

using namespace perfbench;
using namespace seminal;

void TimingOracle::seedPrefix(const caml::Program &Prog, unsigned EditedDecl) {
  auto Start = Clock::now();
  Inner.seedPrefix(Prog, EditedDecl);
  Totals.SearchOracleNs += nsBetween(Start, Clock::now());
  Seeded = true;
}

void TimingOracle::clearPrefix() {
  auto Start = Clock::now();
  Inner.clearPrefix();
  Totals.SearchOracleNs += nsBetween(Start, Clock::now());
  Seeded = false;
}

bool TimingOracle::typecheckImpl(const caml::Program &Prog) {
  auto Start = Clock::now();
  bool Verdict = Inner.typechecks(Prog);
  uint64_t Ns = nsBetween(Start, Clock::now());
  if (Seeded) {
    Totals.SearchOracleNs += Ns;
    ++Totals.SearchCalls;
    Totals.SearchCallNs.push_back(
        uint32_t(std::min<uint64_t>(Ns, UINT32_MAX)));
  } else {
    Totals.LocalizeNs += Ns;
    ++Totals.LocalizeCalls;
  }
  return Verdict;
}

std::optional<std::string>
TimingOracle::typeOfNodeImpl(const caml::Program &Prog,
                             const caml::Expr *Node) {
  auto Start = Clock::now();
  std::optional<std::string> Type = Inner.typeOfNode(Prog, Node);
  Totals.TypeOfNodeNs += nsBetween(Start, Clock::now());
  ++Totals.TypeOfNodeCalls;
  return Type;
}

std::string perfbench::tracedCheck(CheckpointedOracle &Inner,
                                   const std::string &Source,
                                   Metrics *SessionMetrics,
                                   LayerTotals &Totals) {
  SeminalOptions Opts;
  Opts.Search.Metric = SessionMetrics;
  std::string Result;
  Clock::time_point Released;
  {
    auto T0 = Clock::now();
    caml::ParseResult PR = caml::parseProgram(Source);
    auto T1 = Clock::now();
    Totals.ParseNs += nsBetween(T0, T1);
    if (!PR.ok())
      return "syntax error: " + PR.Error->str();

    if (SessionMetrics)
      Inner.primeConventional(Source);
    Inner.resetCallCount();
    Inner.resetCounters();
    Inner.setInstrumentation(nullptr, SessionMetrics);
    std::optional<caml::TypeError> Conventional =
        Inner.conventionalError(*PR.Prog);
    auto T2 = Clock::now();
    Totals.ConventionalNs += nsBetween(T1, T2);

    SearchOutput Out;
    {
      TimingOracle Timed(Inner, Totals);
      Searcher S(Timed, Opts.Search, Inner.arena());
      Out = S.run(*PR.Prog);
    }
    auto T3 = Clock::now();
    Totals.SearchNs += nsBetween(T2, T3);

    rankSuggestions(Out.Suggestions);
    if (Out.Suggestions.size() > Opts.MaxSuggestions)
      Out.Suggestions.resize(Opts.MaxSuggestions);
    auto T4 = Clock::now();
    Totals.RankNs += nsBetween(T3, T4);

    std::vector<std::string> Messages;
    Messages.reserve(Out.Suggestions.size());
    for (const Suggestion &S : Out.Suggestions)
      Messages.push_back(renderSuggestion(S, Opts.Message));
    Result = canonicalOutput(
        Out.InputTypechecks ? "" : renderConventional(Conventional), Messages);
    Totals.RenderNs += nsBetween(T4, Clock::now());

    Totals.LogicalCalls += Inner.logicalCalls();
    Totals.InferenceRuns += Inner.inferenceRuns();
    const AccelCounters &A = Inner.counters();
    Totals.CacheHits += A.CacheHits;
    Totals.CacheMisses += A.CacheMisses;
    Totals.TypesAllocated += A.TypesAllocated;
    ++Totals.Checks;
    Released = Clock::now();
  }
  Totals.LifecycleNs += nsBetween(Released, Clock::now());
  return Result;
}

std::string perfbench::tracedOneShot(const std::string &Source,
                                     LayerTotals &Totals) {
  static const SeminalOptions Opts;
  auto Start = Clock::now();
  auto Inner = std::make_unique<CheckpointedOracle>(Opts.Search.Accel);
  Totals.LifecycleNs += nsBetween(Start, Clock::now());
  std::string Result =
      tracedCheck(*Inner, Source, /*SessionMetrics=*/nullptr, Totals);
  auto Release = Clock::now();
  Inner.reset();
  Totals.LifecycleNs += nsBetween(Release, Clock::now());
  return Result;
}

std::unique_ptr<CheckpointedOracle> perfbench::makeSessionOracle() {
  server::SessionConfig Config;
  OracleAccelOptions Accel = Config.Accel;
  Accel.Arena = Accel.Checkpoint = Accel.VerdictCache = true;
  auto Oracle = std::make_unique<CheckpointedOracle>(
      Accel, std::make_shared<caml::AstArena>());
  Oracle->setSessionRetention(true);
  return Oracle;
}
