//===- Session.cpp - One client's warm search state --------------------------==//

#include "server/Session.h"

#include "core/CheckpointedOracle.h"
#include "core/Message.h"
#include "minicaml/Hash.h"
#include "minicaml/Parser.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <chrono>
#include <sstream>

using namespace seminal;
using namespace seminal::server;

Session::Session(std::string Name, const SessionConfig &Config)
    : Name(std::move(Name)), Config(Config) {
  // Session retention needs the arena and the checkpoint, and the memo
  // answers the opening probe; force the layers on regardless of what the
  // caller left in Accel so a session is never silently cold. (Ablation
  // experiments drive the oracle directly.)
  this->Config.Accel.Arena = true;
  this->Config.Accel.Checkpoint = true;
  this->Config.Accel.VerdictCache = true;
  rebuildOracle();
}

Session::~Session() = default;

void Session::rebuildOracle() {
  std::shared_ptr<caml::AstArena> Arena;
  if (Oracle) {
    Arena = Oracle->arena();
    Oracle.reset();
    // Reuse the node storage when nothing else holds an id into it;
    // otherwise start a fresh arena and let the old one die with its
    // last holder (ids must stay valid for whoever kept them).
    if (Arena && Arena.use_count() == 1)
      Arena->clear();
    else
      Arena = std::make_shared<caml::AstArena>();
  } else {
    Arena = std::make_shared<caml::AstArena>();
  }
  Oracle = std::make_unique<CheckpointedOracle>(Config.Accel, Arena);
  Oracle->setSessionRetention(true);
}

void Session::reset() {
  Previous.reset();
  rebuildOracle();
}

uint64_t Session::arenaBytes() const {
  return Oracle->arena() ? Oracle->arena()->stats().Bytes : 0;
}

namespace {

using Clock = std::chrono::steady_clock;

/// The part of an outcome that depends on the request alone: what a
/// replay serves again. Counters, clocks and the report are the searched
/// request's own.
CheckOutcome answerOf(const CheckOutcome &O) {
  CheckOutcome A;
  A.SyntaxError = O.SyntaxError;
  A.InputTypechecks = O.InputTypechecks;
  A.FailingDecl = O.FailingDecl;
  A.BudgetExhausted = O.BudgetExhausted;
  A.Conventional = O.Conventional;
  A.Suggestions = O.Suggestions;
  return A;
}

/// Stamps the ledger's clocks. CpuNs is a thread-CPU clock delta: the
/// session is pinned to one shard worker, so everything the check burns
/// lands on this thread and nothing else does (DESIGN.md section 16).
void stampClocks(CheckOutcome &Out, Clock::time_point Start,
                 uint64_t CpuStart) {
  Out.WallSeconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  Out.CpuNs = prof::threadCpuNs() - CpuStart;
}

} // namespace

CheckOutcome Session::check(const std::string &Source,
                            const CheckOptions &Opts) {
  auto Start = Clock::now();
  uint64_t CpuStart = prof::threadCpuNs();
  ++Checks;

  // A replay or a syntax error runs no search: its bill is its own
  // clocks, no oracle work, and the arena as the session holds it now.
  auto CloseUnsearched = [&](CheckOutcome &Out) {
    stampClocks(Out, Start, CpuStart);
    if (Oracle->arena()) {
      const caml::AstArena::Stats &A = Oracle->arena()->stats();
      Out.Accel.ArenaNodes = A.Nodes;
      Out.Accel.ArenaBytes = A.Bytes;
    }
    Out.ArenaBytes = Out.Accel.ArenaBytes;
  };
  auto Remember = [&](const CheckOutcome &Out) {
    Previous = PreviousCheck{Source, Opts.MaxSuggestions, Opts.MaxOracleCalls,
                             answerOf(Out)};
  };

  // Same bytes under the same limits: a search is deterministic in its
  // program and options, so the previous answer is this one. A report
  // describes a search, so a request for one runs it.
  if (Previous && !Opts.WantReport && Previous->Source == Source &&
      Previous->MaxSuggestions == Opts.MaxSuggestions &&
      Previous->MaxOracleCalls == Opts.MaxOracleCalls) {
    CheckOutcome Out = Previous->Outcome;
    Out.Replayed = true;
    CloseUnsearched(Out);
    return Out;
  }

  CheckOutcome Out;
  caml::ParseResult PR = caml::parseProgram(Source);
  if (!PR.ok()) {
    // A syntax error is a normal outcome; warm state stays valid for the
    // next (hopefully parseable) resubmit.
    Out.SyntaxError = PR.Error->str();
    Remember(Out);
    CloseUnsearched(Out);
    return Out;
  }

  SeminalOptions RunOpts = Config.Base;
  if (Opts.MaxSuggestions)
    RunOpts.MaxSuggestions = Opts.MaxSuggestions;
  if (Opts.MaxOracleCalls)
    RunOpts.Search.MaxOracleCalls = Opts.MaxOracleCalls;

  // Tail sampling: record every request when enabled, export only the
  // slow ones (the decision needs the wall time, which exists only
  // after the fact). Tracing is observational, so attaching the sink
  // cannot change the outcome.
  bool WantSlowTrace = Config.TraceSlowMs >= 0.0 && Config.SlowTraces;
  std::unique_ptr<TraceSink> Sink;
  if (WantSlowTrace) {
    Sink = std::make_unique<TraceSink>();
    RunOpts.Search.Trace = Sink.get();
  }

  // Announce the raw text so the oracle's cross-request conventional
  // memo can prove byte-prefix validity, then run against the warm
  // oracle. runSeminalWithOracle resets the call count and counters, so
  // everything the report carries is this request's.
  Oracle->primeConventional(Source);
  SeminalReport R = runSeminalWithOracle(*Oracle, *PR.Prog, RunOpts);

  Out.InputTypechecks = R.InputTypechecks;
  Out.FailingDecl = R.FailingDeclIndex ? int(*R.FailingDeclIndex) : -1;
  Out.BudgetExhausted = R.BudgetExhausted;
  if (!R.InputTypechecks)
    Out.Conventional = R.conventionalMessage();
  Out.Suggestions.reserve(R.Suggestions.size());
  for (size_t I = 0; I < R.Suggestions.size(); ++I) {
    const Suggestion &S = R.Suggestions[I];
    CheckOutcome::RenderedSuggestion RS;
    RS.Rank = int(I) + 1;
    RS.Kind = changeKindName(S.Kind);
    RS.Layer = suggestionLayer(S);
    RS.Description = S.Description;
    RS.Path = S.Path.str();
    RS.Message = renderSuggestion(S, RunOpts.Message);
    Out.Suggestions.push_back(std::move(RS));
  }
  Remember(Out);
  Out.OracleCalls = R.OracleCalls;
  Out.InferenceRuns = R.InferenceRuns;
  Out.Accel = R.Accel;

  // Clocks: stamped here, so the RunReport and the outcome (-> protocol
  // response, engine counters) carry the same numbers.
  stampClocks(Out, Start, CpuStart);

  if (Opts.WantReport) {
    obs::RunReport Run;
    Run.ProgramId = Name + "#" + std::to_string(Checks);
    Run.SourceHash = caml::hashProgram(*PR.Prog);
    fillRunReport(Run, R, /*Telemetry=*/nullptr, Out.WallSeconds);
    Run.CpuNs = Out.CpuNs;
    std::ostringstream OS;
    Run.writeJson(OS);
    Out.ReportJson = OS.str();
  }

  // Eviction check: the arena holds only the retained prefix's ids, which
  // rebuildOracle drops along with the oracle.
  if (arenaBytes() > Config.ArenaEvictBytes) {
    rebuildOracle();
    Out.Evicted = true;
  }
  Out.ArenaBytes = arenaBytes();

  if (WantSlowTrace && Out.WallSeconds * 1000.0 >= Config.TraceSlowMs)
    Out.SlowTracePath = Config.SlowTraces->capture(Opts.RequestId, *Sink);
  return Out;
}
