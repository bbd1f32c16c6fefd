//===- Session.cpp - One client's warm search state --------------------------==//

#include "server/Session.h"

#include "core/CheckpointedOracle.h"
#include "core/Message.h"
#include "minicaml/Hash.h"
#include "minicaml/Parser.h"
#include "server/Protocol.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <chrono>
#include <sstream>

using namespace seminal;
using namespace seminal::server;

Session::Session(std::string Name, const SessionConfig &Config)
    : Name(std::move(Name)), Config(Config) {
  // Session retention needs the checkpoint and the memo, which also
  // answers the opening probe; force the layers on regardless of what the
  // caller left in Accel so a session is never silently cold. (Ablation
  // experiments drive the oracle directly.)
  this->Config.Accel.Checkpoint = true;
  this->Config.Accel.VerdictCache = true;
  Oracle = std::make_unique<CheckpointedOracle>(this->Config.Accel);
  Oracle->setSessionRetention(true);
}

Session::~Session() = default;

void Session::reset() {
  Previous.reset();
  Oracle->resetSession();
}

uint64_t Session::arenaBytes() const { return Oracle->retainedBytes(); }

void server::appendAnswerMembers(std::string &Out, const CheckOutcome &O) {
  if (!O.SyntaxError.empty()) {
    Out += ",\"syntax_error\":";
    appendJsonString(Out, O.SyntaxError);
    return;
  }
  Out += ",\"input_typechecks\":";
  appendJsonBool(Out, O.InputTypechecks);
  Out += ",\"failing_decl\":";
  appendJsonInt(Out, O.FailingDecl);
  Out += ",\"budget_exhausted\":";
  appendJsonBool(Out, O.BudgetExhausted);
  Out += ",\"conventional\":";
  appendJsonString(Out, O.Conventional);
  Out += ",\"suggestions\":[";
  for (size_t I = 0; I < O.Suggestions.size(); ++I) {
    const CheckOutcome::RenderedSuggestion &S = O.Suggestions[I];
    Out += I ? ",{\"rank\":" : "{\"rank\":";
    appendJsonInt(Out, S.Rank);
    Out += ",\"kind\":";
    appendJsonString(Out, S.Kind);
    Out += ",\"layer\":";
    appendJsonString(Out, S.Layer);
    Out += ",\"description\":";
    appendJsonString(Out, S.Description);
    Out += ",\"path\":";
    appendJsonString(Out, S.Path);
    Out += ",\"message\":";
    appendJsonString(Out, S.Message);
    Out += '}';
  }
  Out += ']';
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
  A.RenderedAnswer = O.RenderedAnswer;
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
  // clocks, no oracle work, and what the session retains now.
  auto CloseUnsearched = [&](CheckOutcome &Out) {
    stampClocks(Out, Start, CpuStart);
    Out.Accel.ArenaBytes = Out.ArenaBytes = arenaBytes();
  };
  // The answer is rendered here, once: this reply and every replay of
  // it splice the same bytes.
  auto Remember = [&](CheckOutcome &Out) {
    std::string Answer;
    appendAnswerMembers(Answer, Out);
    Out.RenderedAnswer = std::make_shared<const std::string>(std::move(Answer));
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
    fillRunReport(Run, R, Out.WallSeconds);
    Run.CpuNs = Out.CpuNs;
    std::ostringstream OS;
    Run.writeJson(OS);
    Out.ReportJson = OS.str();
  }

  // Eviction check: one request's retained state crossed the watermark.
  if (arenaBytes() > Config.ArenaEvictBytes) {
    Oracle->resetSession();
    Out.Evicted = true;
  }
  Out.ArenaBytes = arenaBytes();

  if (WantSlowTrace && Out.WallSeconds * 1000.0 >= Config.TraceSlowMs)
    Out.SlowTracePath = Config.SlowTraces->capture(Opts.RequestId, *Sink);
  return Out;
}
