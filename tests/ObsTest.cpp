//===- ObsTest.cpp - Tests for the outcome-telemetry subsystem ------------==//
//
// The outcome half of the observability stack (DESIGN.md section 10)
// carries the same two contracts as the trace half:
//
//   1. Observational purity: attaching a TelemetrySink changes nothing
//      about the search -- suggestions and logical-call counts are
//      byte-identical with the sink attached or not.
//   2. Faithfulness: the RunReport mirrors the run it distills (ranked
//      suggestions, winning layer, effort counters), the per-layer
//      tallies add up, and every serialized artifact -- RunReport JSON,
//      aggregate snapshot, explorer HTML -- is well-formed and
//      self-contained.
//
//===----------------------------------------------------------------------==//

#include "JsonTestUtil.h"
#include "core/Seminal.h"
#include "minicaml/Printer.h"
#include "obs/Aggregate.h"
#include "obs/Explorer.h"
#include "obs/RunReport.h"
#include "obs/Telemetry.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

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

std::string suggestionDigest(const SeminalReport &R) {
  std::string Out;
  for (const Suggestion &S : R.Suggestions) {
    Out += std::to_string(int(S.Kind)) + "/" + S.Path.str() + "/";
    if (S.Original)
      Out += caml::printExpr(*S.Original);
    Out += "=>";
    if (S.Replacement)
      Out += caml::printExpr(*S.Replacement);
    Out += "/" + S.Description + ";";
  }
  return Out;
}

obs::CandidateOutcome makeOutcome(const char *Layer, const char *Kind,
                                  bool Verdict, int Rank = 0) {
  obs::CandidateOutcome O;
  O.Layer = Layer;
  O.Kind = Kind;
  O.Verdict = Verdict;
  O.Rank = Rank;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// TelemetrySink mechanics
//===----------------------------------------------------------------------===//

TEST(TelemetrySinkTest, RecordsInOrderAndClears) {
  obs::TelemetrySink Sink;
  EXPECT_EQ(Sink.size(), 0u);

  Sink.record(makeOutcome("removal", "probe", false));
  Sink.record(makeOutcome("constructive", "constructive", true));
  EXPECT_EQ(Sink.size(), 2u);

  std::vector<obs::CandidateOutcome> Records = Sink.snapshot();
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].Layer, "removal");
  EXPECT_FALSE(Records[0].Verdict);
  EXPECT_EQ(Records[1].Layer, "constructive");
  EXPECT_TRUE(Records[1].Verdict);

  Sink.clear();
  EXPECT_EQ(Sink.size(), 0u);
  EXPECT_TRUE(Sink.snapshot().empty());
}

TEST(TelemetrySinkTest, LayerStatsTallyTriedSucceeded) {
  obs::TelemetrySink Sink;
  Sink.record(makeOutcome("adaptation", "adaptation", false));
  Sink.record(makeOutcome("adaptation", "adaptation", true));
  Sink.record(makeOutcome("removal", "probe", false));

  auto Stats = Sink.layerStats();
  ASSERT_TRUE(Stats.count("adaptation"));
  EXPECT_EQ(Stats["adaptation"].Tried, 2u);
  EXPECT_EQ(Stats["adaptation"].Succeeded, 1u);
  EXPECT_EQ(Stats["removal"].Tried, 1u);
  EXPECT_EQ(Stats["removal"].Succeeded, 0u);
}

TEST(TelemetrySinkTest, LayerStatsExcludePostRankingSuggestionRecords) {
  obs::TelemetrySink Sink;
  Sink.record(makeOutcome("constructive", "constructive", true));
  // Post-ranking duplicates of outcomes already counted under their
  // issuing layer must not inflate the tallies.
  Sink.record(makeOutcome("suggestion", "constructive", true, /*Rank=*/1));
  Sink.record(makeOutcome("suggestion", "removal", true, /*Rank=*/2));

  auto Stats = Sink.layerStats();
  EXPECT_EQ(Stats.count("suggestion"), 0u);
  EXPECT_EQ(Stats["constructive"].Tried, 1u);
}

//===----------------------------------------------------------------------===//
// Contract 1: telemetry is observational only
//===----------------------------------------------------------------------===//

TEST(ObsPurityTest, SuggestionsIdenticalWithTelemetryOnAndOff) {
  for (const char *Source : {Fig2, TwoErrors}) {
    SeminalReport Plain = runSeminalOnSource(Source);

    obs::TelemetrySink Sink;
    SeminalOptions Opts;
    Opts.Search.Telemetry = &Sink;
    SeminalReport Observed = runSeminalOnSource(Source, Opts);

    EXPECT_EQ(suggestionDigest(Plain), suggestionDigest(Observed));
    EXPECT_EQ(Plain.OracleCalls, Observed.OracleCalls);
    EXPECT_EQ(Plain.InferenceRuns, Observed.InferenceRuns);
    EXPECT_GT(Sink.size(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Contract 2: the RunReport mirrors the run
//===----------------------------------------------------------------------===//

TEST(RunReportTest, FillRunReportMirrorsTheRun) {
  obs::TelemetrySink Sink;
  SeminalOptions Opts;
  Opts.Search.Telemetry = &Sink;
  SeminalReport Report = runSeminalOnSource(Fig2, Opts);
  ASSERT_FALSE(Report.Suggestions.empty());

  obs::RunReport R;
  fillRunReport(R, Report, &Sink, 1.25);

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
  EXPECT_FALSE(R.Layers.empty());

  // The sink carries one post-ranking record per ranked suggestion,
  // 1-based in rank order.
  std::vector<int> Ranks;
  for (const obs::CandidateOutcome &O : Sink.snapshot())
    if (O.Rank > 0)
      Ranks.push_back(O.Rank);
  ASSERT_EQ(Ranks.size(), Report.Suggestions.size());
  for (size_t I = 0; I < Ranks.size(); ++I)
    EXPECT_EQ(Ranks[I], int(I) + 1);
}

TEST(RunReportTest, CompactJsonIsValidAndSingleLine) {
  obs::TelemetrySink Sink;
  SeminalOptions Opts;
  Opts.Search.Telemetry = &Sink;
  SeminalReport Report = runSeminalOnSource(Fig2, Opts);

  obs::RunReport R;
  R.ProgramId = "fig2";
  fillRunReport(R, Report, &Sink);

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
  obs::TelemetrySink Sink;
  SeminalOptions Opts;
  Opts.Search.Trace = &Trace;
  Opts.Search.Telemetry = &Sink;
  SeminalReport Report = runSeminalOnSource(Fig2, Opts);

  obs::RunReport R;
  R.ProgramId = "fig2";
  fillRunReport(R, Report, &Sink);

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
