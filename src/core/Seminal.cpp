//===- Seminal.cpp - Public facade implementation --------------------------==//

#include "core/Seminal.h"

#include "core/CheckpointedOracle.h"
#include "core/Ranker.h"

using namespace seminal;
using namespace seminal::caml;

std::string SeminalReport::bestMessage(const MessageOptions &Opts) const {
  if (SyntaxError)
    return "Syntax error: " + SyntaxError->str();
  if (InputTypechecks)
    return "No type errors.";
  if (Suggestions.empty())
    return "No suggestion found; the conventional message is:\n" +
           conventionalMessage();
  return renderSuggestion(Suggestions.front(), Opts);
}

std::string SeminalReport::conventionalMessage() const {
  return renderConventional(CheckerError);
}

const char *seminal::suggestionLayer(const Suggestion &S) {
  if (S.Kind == ChangeKind::Constructive && !S.Original)
    return "decl-change"; // declaration-header tweaks carry no subtree
  return changeKindName(S.Kind);
}

void seminal::fillRunReport(obs::RunReport &R, const SeminalReport &Report,
                            double WallSeconds) {
  R.Parsed = !Report.SyntaxError.has_value();
  R.InputTypechecks = Report.InputTypechecks;
  R.BudgetExhausted = Report.BudgetExhausted;
  R.FailingDecl =
      Report.FailingDeclIndex ? int(*Report.FailingDeclIndex) : -1;

  R.Suggestions.clear();
  for (size_t I = 0; I < Report.Suggestions.size(); ++I) {
    const Suggestion &S = Report.Suggestions[I];
    obs::SuggestionOutcome O;
    O.Rank = int(I) + 1;
    O.Kind = changeKindName(S.Kind);
    O.Layer = suggestionLayer(S);
    O.Description = S.Description;
    O.Path = S.Path.str();
    O.ViaTriage = S.ViaTriage;
    O.InSlice = S.InSlice;
    O.LikelyUnbound = S.LikelyUnboundVariable;
    O.Priority = S.Priority;
    O.OriginalSize = S.OriginalSize;
    O.ReplacementSize = S.ReplacementSize;
    R.Suggestions.push_back(std::move(O));
  }
  if (!R.Suggestions.empty()) {
    R.WinningLayer = R.Suggestions.front().Layer;
    R.WinningKind = R.Suggestions.front().Kind;
  }

  R.OracleCalls = Report.OracleCalls;
  R.InferenceRuns = Report.InferenceRuns;
  R.WallSeconds = WallSeconds;
  R.Accel = Report.Accel;
  R.Layers = Report.Layers;

  if (Report.Slice && Report.Slice->Valid) {
    R.SliceValid = true;
    R.SliceInfluence = Report.Slice->Influence.size();
    R.SliceCore = Report.Slice->Core.size();
    R.SliceCorePaths.clear();
    R.SliceInfluencePaths.clear();
    for (const caml::NodePath &P : Report.Slice->Core)
      R.SliceCorePaths.push_back(P.str());
    for (const caml::NodePath &P : Report.Slice->Influence)
      R.SliceInfluencePaths.push_back(P.str());
  }
}

SeminalReport seminal::runSeminal(const Program &Prog,
                                  const SeminalOptions &Opts) {
  CheckpointedOracle TheOracle(Opts.Search.Accel);
  return runSeminalWithOracle(TheOracle, Prog, Opts);
}

SeminalReport seminal::runSeminalWithOracle(CheckpointedOracle &TheOracle,
                                            const Program &Prog,
                                            const SeminalOptions &Opts) {
  SeminalReport Report;

  // Per-request reset boundary: a long-lived oracle carries logical-call
  // and counter totals from earlier requests, but the budget and the
  // report are per-request quantities.
  TheOracle.resetCallCount();
  TheOracle.resetCounters();
  TheOracle.setInstrumentation(Opts.Search.Trace);
  Report.CheckerError = TheOracle.conventionalError(Prog);

  {
    // Root span: everything a run does nests under it, so the exporter's
    // timeline has a single top-level bar per runSeminal invocation.
    TraceSpan RootSpan(Opts.Search.Trace, SpanKind::Search, "seminal.run");
    if (RootSpan.enabled())
      RootSpan.attr("decls", int64_t(Prog.Decls.size()));

    Searcher S(TheOracle, Opts.Search);
    SearchOutput Out = S.run(Prog);

    Report.InputTypechecks = Out.InputTypechecks;
    Report.FailingDeclIndex = Out.FailingDecl;
    Report.BudgetExhausted = Out.BudgetExhausted;
    Report.Slice = std::move(Out.Slice);
    Report.Suggestions = std::move(Out.Suggestions);
    {
      TraceSpan RankSpan(Opts.Search.Trace, SpanKind::Rank, "seminal.rank");
      if (RankSpan.enabled())
        RankSpan.attr("suggestions", int64_t(Report.Suggestions.size()));
      rankSuggestions(Report.Suggestions);
    }
    if (Report.Suggestions.size() > Opts.MaxSuggestions)
      Report.Suggestions.resize(Opts.MaxSuggestions);
  }
  Report.OracleCalls = TheOracle.logicalCalls();
  Report.Layers = TheOracle.ledger();
  Report.InferenceRuns = TheOracle.inferenceRuns();
  Report.Accel = TheOracle.counters();
  // What the oracle keeps for the next request is a level, read once
  // here for the report and the cost ledger.
  Report.Accel.ArenaBytes = TheOracle.retainedBytes();
  return Report;
}

SeminalReport seminal::runSeminalOnSource(const std::string &Source,
                                          const SeminalOptions &Opts) {
  ParseResult R = parseProgram(Source);
  if (!R.ok()) {
    SeminalReport Report;
    Report.SyntaxError = R.Error;
    return Report;
  }
  return runSeminal(*R.Prog, Opts);
}
