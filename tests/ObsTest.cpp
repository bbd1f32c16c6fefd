//===- ObsTest.cpp - Tests for the call ledger and the run report ---------==//
//
// The outcome half of the observability stack (DESIGN.md section 10)
// is faithful to the run: the per-layer call ledger sums to the run's
// oracle calls and agrees, layer by layer, with the trace's oracle-call
// spans; the RunReport mirrors the run it distills (ranked suggestions,
// winning layer, effort counters); and every serialized artifact --
// RunReport JSON, aggregate snapshot, explorer HTML -- is well-formed
// and self-contained. Telemetry only observes: with a trace and a
// Metrics attached, the suggestions, the counts and the report written
// from them are the same as without.
//
//===----------------------------------------------------------------------==//

#include "JsonTestUtil.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "minicaml/Printer.h"
#include "obs/Aggregate.h"
#include "obs/Explorer.h"
#include "obs/RunReport.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

using namespace seminal;

namespace {

/// The Figure 2 program: exercises localization, adaptation, and
/// constructive candidates.
const char *Fig2 =
    "let map2 f aList bList =\n"
    "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
    "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
    "let ans = List.filter (fun x -> x == 0) lst\n";

/// Two independent errors: forces triage.
const char *TwoErrors = "let go y =\n"
                        "  let a = 3 + true in\n"
                        "  let b = 4 + \"hi\" in\n"
                        "  y + 1";

/// Layer name -> (calls, accepted), for comparing the ledger with a trace.
using LayerTable = std::map<std::string, std::pair<uint64_t, uint64_t>>;

LayerTable tableOf(const CallLedger &Ledger) {
  LayerTable T;
  for (size_t I = 0; I < NumSearchLayers; ++I)
    if (Ledger.Slots[I].Calls)
      T[searchLayerName(SearchLayer(I))] = {Ledger.Slots[I].Calls,
                                            Ledger.Slots[I].Accepted};
  return T;
}

/// Oracle-call spans per `layer` attribute, and how many had a true
/// `verdict`.
LayerTable tableOf(const std::vector<TraceEvent> &Events) {
  LayerTable T;
  for (const TraceEvent &E : Events) {
    if (E.Kind != SpanKind::OracleCall)
      continue;
    auto &Row = T[E.attr("layer")->Str];
    ++Row.first;
    Row.second += E.attr("verdict")->Flag;
  }
  return T;
}

std::string suggestionDigest(const SeminalReport &R) {
  std::string Out;
  for (const Suggestion &S : R.Suggestions) {
    Out += std::to_string(int(S.Kind)) + "/" + S.Path.str() + "/";
    if (S.Original)
      Out += caml::printExpr(*S.Original);
    Out += "=>";
    if (S.Replacement)
      Out += caml::printExpr(*S.Replacement);
    Out += "/" + S.Description + "/" + S.ContextAfter + "/" +
           (S.ReplacementType ? *S.ReplacementType : "<none>") + ";";
  }
  return Out;
}

std::string reportJson(const SeminalReport &Report) {
  obs::RunReport R;
  fillRunReport(R, Report);
  std::ostringstream OS;
  R.writeJson(OS);
  return OS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// The ledger counts every call, by layer
//===----------------------------------------------------------------------===//

TEST(CallLedgerTest, SumsToOracleCallsAndMatchesTheTrace) {
  // Figure 2, a triage case, and the 239 files of the first corpus
  // cohort (seed 20070611, scale 1.5; perfbench's oneshot-corpus).
  std::vector<std::string> Sources = {Fig2, TwoErrors};
  CorpusOptions CO;
  CO.Seed = 20070611;
  CO.Scale = 1.5;
  for (const CorpusFile &F : generateCorpus(CO).Analyzed)
    Sources.push_back(F.Source);
  ASSERT_EQ(Sources.size(), 2u + 239u);

  for (const std::string &Source : Sources) {
    TraceSink Sink;
    SeminalOptions Opts;
    Opts.Search.Trace = &Sink;
    SeminalReport R = runSeminalOnSource(Source, Opts);
    EXPECT_EQ(R.Layers.calls(), R.OracleCalls) << Source;
    EXPECT_EQ(tableOf(R.Layers), tableOf(Sink.snapshot())) << Source;
    EXPECT_EQ(R.Layers[SearchLayer::Unattributed].Calls, 0u) << Source;
  }
}

TEST(CallLedgerTest, CountsEveryCallUnderABudget) {
  // The budget refuses search calls past MaxOracleCalls, but the opening
  // whole-program check and the type queries that decorate a found
  // suggestion do not pass through it. The ledger counts the calls made,
  // not the probes planned: a refused removal probe is no call.
  SeminalOptions Opts;
  Opts.Search.MaxOracleCalls = 7;
  SeminalReport R = runSeminalOnSource(TwoErrors, Opts);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_EQ(R.OracleCalls, 8u);
  EXPECT_EQ(R.Layers.calls(), 8u);
  EXPECT_EQ(R.Layers[SearchLayer::InitialCheck].Calls, 1u);
  EXPECT_EQ(R.Layers[SearchLayer::Removal].Calls, 2u);
  EXPECT_GT(R.Layers[SearchLayer::TypeQuery].Calls, 0u);
}

//===----------------------------------------------------------------------===//
// Telemetry is observational only
//===----------------------------------------------------------------------===//

TEST(ObsPurityTest, SuggestionsIdenticalWithTelemetryOnAndOff) {
  for (const char *Source : {Fig2, TwoErrors}) {
    SeminalReport Plain = runSeminalOnSource(Source);

    // Telemetry on as `seminal_cli --metrics` turns it on (a trace that
    // Metrics is read from), plus the Metrics pointer SearchOptions
    // still accepts and ignores.
    TraceSink Sink;
    Metrics Passed;
    SeminalOptions Opts;
    Opts.Search.Trace = &Sink;
    Opts.Search.Metric = &Passed;
    SeminalReport Observed = runSeminalOnSource(Source, Opts);

    EXPECT_EQ(suggestionDigest(Plain), suggestionDigest(Observed));
    EXPECT_EQ(Plain.OracleCalls, Observed.OracleCalls);
    EXPECT_EQ(Plain.InferenceRuns, Observed.InferenceRuns);
    EXPECT_TRUE(Plain.Layers == Observed.Layers) << "the call ledger moved";
    EXPECT_EQ(reportJson(Plain), reportJson(Observed));
    EXPECT_TRUE(Passed.empty()) << "the search wrote into a Metrics";
    EXPECT_FALSE(Metrics::fromTrace(Sink.snapshot()).empty());
  }
}

//===----------------------------------------------------------------------===//
// The RunReport mirrors the run
//===----------------------------------------------------------------------===//

TEST(RunReportTest, FillRunReportMirrorsTheRun) {
  SeminalReport Report = runSeminalOnSource(Fig2);
  ASSERT_FALSE(Report.Suggestions.empty());

  obs::RunReport R;
  fillRunReport(R, Report, 1.25);

  EXPECT_TRUE(R.Parsed);
  EXPECT_FALSE(R.InputTypechecks);
  ASSERT_EQ(R.Suggestions.size(), Report.Suggestions.size());
  for (size_t I = 0; I < R.Suggestions.size(); ++I) {
    EXPECT_EQ(R.Suggestions[I].Rank, int(I) + 1);
    EXPECT_EQ(R.Suggestions[I].Layer,
              suggestionLayer(Report.Suggestions[I]));
  }
  EXPECT_EQ(R.WinningLayer, R.Suggestions.front().Layer);
  EXPECT_EQ(R.OracleCalls, Report.OracleCalls);
  EXPECT_EQ(R.InferenceRuns, Report.InferenceRuns);
  EXPECT_DOUBLE_EQ(R.WallSeconds, 1.25);
  EXPECT_EQ(R.Layers.calls(), R.OracleCalls);
}

TEST(RunReportTest, LayersAreTheLedgerInSearchOrder) {
  obs::RunReport R;
  fillRunReport(R, runSeminalOnSource(Fig2));
  std::ostringstream OS;
  R.writeJson(OS);
  // Every layer that asked, in the order the search runs them; the
  // calls sum to oracle_calls (36), and no other per-layer field is left.
  EXPECT_NE(OS.str().find(
                "\"layers\":{\"initial-check\":{\"calls\":1,\"accepted\":0},"
                "\"localize\":{\"calls\":2,\"accepted\":1},"
                "\"decl-change\":{\"calls\":1,\"accepted\":0},"
                "\"removal\":{\"calls\":6,\"accepted\":3},"
                "\"adaptation\":{\"calls\":3,\"accepted\":2},"
                "\"constructive\":{\"calls\":18,\"accepted\":2},"
                "\"type-query\":{\"calls\":5,\"accepted\":5}}}"),
            std::string::npos)
      << OS.str();
  EXPECT_EQ(R.OracleCalls, 36u);
}

TEST(RunReportTest, CompactJsonIsValidAndSingleLine) {
  SeminalReport Report = runSeminalOnSource(Fig2);

  obs::RunReport R;
  R.ProgramId = "fig2";
  fillRunReport(R, Report);

  std::ostringstream Compact;
  R.writeJson(Compact);
  EXPECT_TRUE(JsonValidator(Compact.str()).valid()) << Compact.str();
  EXPECT_EQ(Compact.str().find('\n'), std::string::npos)
      << "JSONL records must be one line";
  EXPECT_NE(Compact.str().find("\"schema_version\""), std::string::npos);

  std::ostringstream Pretty;
  R.writeJson(Pretty, /*Pretty=*/true);
  EXPECT_TRUE(JsonValidator(Pretty.str()).valid());
}

TEST(RunReportTest, EscapesHostileStrings) {
  obs::RunReport R;
  R.ProgramId = "a\"b\\c\nd\te\x01";
  R.MutationKinds.push_back("</script>");
  obs::SuggestionOutcome S;
  S.Rank = 1;
  S.Description = "replace \"x\"\nwith y";
  R.Suggestions.push_back(S);

  std::ostringstream OS;
  R.writeJson(OS);
  EXPECT_TRUE(JsonValidator(OS.str()).valid()) << OS.str();
  EXPECT_EQ(OS.str().find('\n'), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Aggregate snapshot
//===----------------------------------------------------------------------===//

TEST(AggregateTest, SnapshotJsonIsValidAndFoldsReports) {
  obs::RunReport A;
  A.Bucket = 3; // ours strictly better
  A.QualityChecker = "poor";
  A.QualityOurs = "accurate";
  A.QualityNoTriage = "accurate";
  A.RankOfTrueFix = 1;
  A.WinningLayer = "constructive";
  obs::SuggestionOutcome SA;
  SA.Rank = 1;
  A.Suggestions.push_back(SA);
  A.OracleCalls = 100;

  obs::RunReport B;
  B.Bucket = 5; // checker strictly better
  B.QualityChecker = "accurate";
  B.QualityOurs = "poor";
  B.QualityNoTriage = "poor";
  B.RankOfTrueFix = 0;
  B.OracleCalls = 50; // no suggestions at all

  obs::TelemetryAggregate Agg;
  Agg.add(A);
  Agg.add(B);
  EXPECT_EQ(Agg.files(), 2u);

  obs::SnapshotInfo Info;
  Info.Scale = 0.5;
  Info.Seed = 42;
  std::ostringstream OS;
  Agg.writeSnapshotJson(OS, Info);
  std::string Json = OS.str();

  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"bench\": \"telemetry\""), std::string::npos);
  EXPECT_NE(Json.find("\"files\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(Json.find("\"oracle_calls\": 150"), std::string::npos);
  // One bucket-2 file and one bucket-5 file, 50% each.
  EXPECT_NE(Json.find("\"ours_better_pct\": 50.0000"), std::string::npos);
  EXPECT_NE(Json.find("\"checker_better_pct\": 50.0000"),
            std::string::npos);
  EXPECT_NE(Json.find("\"no_suggestion\": 1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Explorer HTML
//===----------------------------------------------------------------------===//

TEST(ExplorerTest, SelfContainedHtmlWithAllSections) {
  TraceSink Trace;
  SeminalOptions Opts;
  Opts.Search.Trace = &Trace;
  SeminalReport Report = runSeminalOnSource(Fig2, Opts);

  obs::RunReport R;
  R.ProgramId = "fig2";
  fillRunReport(R, Report);

  std::ostringstream OS;
  obs::writeExplorerHtml(OS, Trace.snapshot(), R, Fig2);
  std::string Html = OS.str();

  // All four sections (plus the source panel) are present.
  for (const char *Anchor :
       {"id=\"tiles\"", "id=\"sugg\"", "id=\"tree\"",
        "id=\"timeline-box\"", "id=\"slice\"", "id=\"src\""})
    EXPECT_NE(Html.find(Anchor), std::string::npos) << Anchor;

  // Self-contained: no external fetches of any kind. (The SVG namespace
  // URI string is an identifier, not a fetch, so "http://" alone is not
  // checked.)
  for (const char *Fetch : {"src=\"http", "href=", "<link", "<img",
                            "@import", "fetch(", "XMLHttpRequest"})
    EXPECT_EQ(Html.find(Fetch), std::string::npos) << Fetch;

  // The embedded DATA document is present and parses as JSON once the
  // \u003c HTML-safety escaping is undone by the JSON parser.
  size_t DataPos = Html.find("const DATA = ");
  ASSERT_NE(DataPos, std::string::npos);
}

TEST(ExplorerTest, EmbeddedDataCannotCloseItsScriptTag) {
  obs::RunReport R;
  R.ProgramId = "hostile";
  std::string Source = "let x = 1 (* </script><script>alert(1) *)";

  std::ostringstream OS;
  obs::writeExplorerHtml(OS, {}, R, Source);
  std::string Html = OS.str();

  // The hostile close-tag inside the data must be \u003c-escaped, never
  // emitted raw.
  EXPECT_EQ(Html.find("</script><script>alert"), std::string::npos);
  EXPECT_NE(Html.find("\\u003c/script"), std::string::npos);
}
