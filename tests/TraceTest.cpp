//===- TraceTest.cpp - Tests for the search-trace subsystem ---------------==//
//
// The trace subsystem's two contracts (DESIGN.md section 8):
//
//   1. Observational purity: attaching a TraceSink changes nothing
//      about the search -- suggestions, logical-call counts, and ranking
//      are byte-identical with tracing on or off.
//   2. Completeness: every logical oracle call is one OracleCall span
//      carrying layer / verdict / cache_hit attributes.
//
// Plus exporter well-formedness (Chrome trace JSON, JSONL), the
// mechanics the instrumentation relies on (parenting, layer scopes,
// disabled-span inertness), and Metrics, the series view of a trace.
//
//===----------------------------------------------------------------------==//

#include "JsonTestUtil.h"
#include "core/Seminal.h"
#include "minicaml/Printer.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <sstream>

using namespace seminal;

namespace {

/// The Figure 2 program: deep enough to exercise localization, decl
/// changes, adaptation, constructive candidates, and type queries.
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
    Out += "/" + S.Description + "/" + S.ContextAfter + "/" +
           (S.ReplacementType ? *S.ReplacementType : "<none>") + ";";
  }
  return Out;
}

SeminalOptions tracedOptions(TraceSink *Sink) {
  SeminalOptions Opts;
  Opts.Search.Trace = Sink;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Contract 1: tracing is observational only
//===----------------------------------------------------------------------===//

TEST(TracePurityTest, SuggestionsIdenticalWithTracingOnAndOff) {
  for (const char *Source : {Fig2, TwoErrors}) {
    SeminalReport Plain = runSeminalOnSource(Source);

    TraceSink Sink;
    SeminalReport Traced = runSeminalOnSource(Source, tracedOptions(&Sink));

    EXPECT_EQ(suggestionDigest(Plain), suggestionDigest(Traced));
    EXPECT_EQ(Plain.OracleCalls, Traced.OracleCalls);
    EXPECT_EQ(Plain.InferenceRuns, Traced.InferenceRuns);
    EXPECT_EQ(Plain.bestMessage(), Traced.bestMessage());
    EXPECT_TRUE(Plain.Layers == Traced.Layers) << "the call ledger moved";
    EXPECT_GT(Sink.eventCount(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Contract 2: one OracleCall span per logical call, fully attributed
//===----------------------------------------------------------------------===//

TEST(TraceCompletenessTest, OneOracleCallSpanPerLogicalCall) {
  TraceSink Sink;
  SeminalReport R = runSeminalOnSource(Fig2, tracedOptions(&Sink));

  uint64_t OracleSpans = 0;
  for (const TraceEvent &E : Sink.snapshot())
    if (E.Kind == SpanKind::OracleCall)
      ++OracleSpans;
  EXPECT_EQ(OracleSpans, R.OracleCalls);
}

TEST(TraceCompletenessTest, EveryOracleSpanCarriesLayerVerdictCacheHit) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));

  size_t Checked = 0;
  for (const TraceEvent &E : Sink.snapshot()) {
    if (E.Kind != SpanKind::OracleCall)
      continue;
    ++Checked;
    const TraceAttr *Layer = E.attr("layer");
    ASSERT_NE(Layer, nullptr) << E.Name;
    EXPECT_EQ(Layer->T, TraceAttr::Type::String);
    EXPECT_FALSE(Layer->Str.empty());
    EXPECT_NE(Layer->Str, "unattributed")
        << "oracle call from an unlabeled search site";
    const TraceAttr *Verdict = E.attr("verdict");
    ASSERT_NE(Verdict, nullptr);
    EXPECT_EQ(Verdict->T, TraceAttr::Type::Bool);
    const TraceAttr *CacheHit = E.attr("cache_hit");
    ASSERT_NE(CacheHit, nullptr);
    EXPECT_EQ(CacheHit->T, TraceAttr::Type::Bool);
    const TraceAttr *ServedBy = E.attr("served_by");
    ASSERT_NE(ServedBy, nullptr);
    EXPECT_FALSE(ServedBy->Str.empty());
  }
  EXPECT_GT(Checked, 0u);
}

TEST(TraceCompletenessTest, TriageRunEmitsTriageSpansAndLayers) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));
  TraceSummary Sum = Sink.summarize();
  EXPECT_GT(Sum.SpansByKind["triage"], 0u);
  EXPECT_GT(Sum.SpansByKind["triage-phase"], 0u);
  std::map<std::string, uint64_t> CallsByLayer;
  for (const TraceEvent &E : Sink.snapshot())
    if (E.Kind == SpanKind::OracleCall)
      ++CallsByLayer[E.attr("layer")->Str];
  EXPECT_GT(CallsByLayer["triage"], 0u);
  EXPECT_GT(CallsByLayer["localize"], 0u);
  EXPECT_GT(CallsByLayer["removal"], 0u);
}

TEST(TraceCompletenessTest, ReportSummaryMatchesEventStream) {
  TraceSink Sink;
  SeminalReport R = runSeminalOnSource(Fig2, tracedOptions(&Sink));
  ASSERT_TRUE(R.Trace.has_value());
  EXPECT_EQ(R.Trace->OracleCallSpans, R.OracleCalls);
  EXPECT_EQ(R.Trace->Spans, Sink.eventCount());
  EXPECT_EQ(R.Layers.calls(), R.Trace->OracleCallSpans);
  EXPECT_FALSE(R.Trace->render().empty());
}

//===----------------------------------------------------------------------===//
// Span mechanics
//===----------------------------------------------------------------------===//

TEST(TraceSpanTest, DisabledSpanIsInert) {
  TraceSpan Span(nullptr, SpanKind::OracleCall, "oracle.typecheck");
  EXPECT_FALSE(Span.enabled());
  EXPECT_EQ(Span.id(), 0u);
  // None of these may crash or allocate sink state.
  Span.attr("layer", "x");
  Span.attr("n", int64_t(1));
  Span.attr("flag", true);
  Span.attr("d", 2.0);
  Span.finish();
}

TEST(TraceSpanTest, NestingParentsAutomatically) {
  TraceSink Sink;
  {
    TraceSpan Outer(&Sink, SpanKind::Search, "outer");
    {
      TraceSpan Inner(&Sink, SpanKind::NodeVisit, "inner");
      EXPECT_NE(Inner.id(), Outer.id());
    }
  }
  auto Events = Sink.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  // Events record at finish: inner first.
  EXPECT_EQ(Events[0].Name, "inner");
  EXPECT_EQ(Events[0].Parent, Events[1].Id);
  EXPECT_EQ(Events[1].Parent, 0u);
  EXPECT_LE(Events[1].StartNs, Events[0].StartNs);
}

TEST(TraceSpanTest, ParentIdsResolveWithinStream) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));
  auto Events = Sink.snapshot();
  std::set<uint64_t> Ids;
  for (const TraceEvent &E : Events)
    Ids.insert(E.Id);
  size_t Roots = 0;
  for (const TraceEvent &E : Events) {
    if (E.Parent == 0) {
      ++Roots;
      continue;
    }
    EXPECT_TRUE(Ids.count(E.Parent))
        << "span " << E.Id << " (" << E.Name << ") has dangling parent "
        << E.Parent;
  }
  EXPECT_GE(Roots, 1u);
}

TEST(TraceSpanTest, SequenceNumbersAreStrictlyIncreasing) {
  TraceSink Sink;
  runSeminalOnSource(Fig2, tracedOptions(&Sink));
  auto Events = Sink.snapshot();
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LT(Events[I - 1].Seq, Events[I].Seq);
}

TEST(TraceLayerScopeTest, NestsAndRestores) {
  EXPECT_EQ(traceCurrentLayer(), SearchLayer::Unattributed);
  {
    TraceLayerScope A(SearchLayer::Localize);
    EXPECT_EQ(traceCurrentLayer(), SearchLayer::Localize);
    {
      TraceLayerScope B(SearchLayer::Triage);
      EXPECT_EQ(traceCurrentLayer(), SearchLayer::Triage);
    }
    EXPECT_EQ(traceCurrentLayer(), SearchLayer::Localize);
  }
  EXPECT_EQ(traceCurrentLayer(), SearchLayer::Unattributed);
  EXPECT_STREQ(searchLayerName(SearchLayer::Unattributed), "unattributed");
  EXPECT_STREQ(searchLayerName(SearchLayer::TypeQuery), "type-query");
}

TEST(TraceSinkTest, ClearDropsEventsButKeepsIdsFresh) {
  TraceSink Sink;
  { TraceSpan S(&Sink, SpanKind::Other, "a"); }
  uint64_t FirstId = Sink.snapshot()[0].Id;
  Sink.clear();
  EXPECT_EQ(Sink.eventCount(), 0u);
  { TraceSpan S(&Sink, SpanKind::Other, "b"); }
  EXPECT_GT(Sink.snapshot()[0].Id, FirstId);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(TraceExportTest, ChromeTraceIsValidJsonWithExpectedShape) {
  TraceSink Sink;
  runSeminalOnSource(Fig2, tracedOptions(&Sink));

  std::ostringstream OS;
  Sink.writeChromeTrace(OS);
  std::string Out = OS.str();

  JsonValidator V(Out);
  EXPECT_TRUE(V.valid()) << Out.substr(0, 400);
  EXPECT_NE(Out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Out.find("\"oracle-call\""), std::string::npos);
  EXPECT_NE(Out.find("\"layer\""), std::string::npos);
  EXPECT_NE(Out.find("\"cache_hit\""), std::string::npos);
}

TEST(TraceExportTest, ChromeTraceEscapesAttributeStrings) {
  TraceSink Sink;
  {
    TraceSpan S(&Sink, SpanKind::Other, "escape");
    S.attr("payload", std::string("quote\" backslash\\ newline\n tab\t"));
  }
  std::ostringstream OS;
  Sink.writeChromeTrace(OS);
  JsonValidator V(OS.str());
  EXPECT_TRUE(V.valid()) << OS.str();
}

TEST(TraceExportTest, JsonlEveryLineIsValidJson) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));

  std::ostringstream OS;
  Sink.writeJsonl(OS);
  std::istringstream In(OS.str());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    JsonValidator V(Line);
    EXPECT_TRUE(V.valid()) << "line " << Lines << ": " << Line;
  }
  EXPECT_EQ(Lines, Sink.eventCount());
}

TEST(TraceExportTest, EmptySinkExportsAreValid) {
  TraceSink Sink;
  std::ostringstream Chrome, Jsonl;
  Sink.writeChromeTrace(Chrome);
  Sink.writeJsonl(Jsonl);
  JsonValidator V(Chrome.str());
  EXPECT_TRUE(V.valid());
  EXPECT_TRUE(Jsonl.str().empty());
}

//===----------------------------------------------------------------------===//
// Metrics, the series view of a finished trace
//===----------------------------------------------------------------------===//

TEST(TraceMetricsTest, SearchPopulatesWellKnownSeries) {
  for (const char *Source : {Fig2, TwoErrors}) {
    TraceSink Sink;
    SeminalReport R = runSeminalOnSource(Source, tracedOptions(&Sink));
    Metrics M = Metrics::fromTrace(Sink.snapshot());

    // One latency sample per oracle call.
    MetricSummary Lat = M.summary(metric::OracleLatencyUs);
    EXPECT_EQ(Lat.Count, R.OracleCalls);
    EXPECT_GE(Lat.P95, Lat.P50);
    EXPECT_GE(Lat.Max, Lat.P95);
    // One reuse depth per incremental run, summing to the declarations
    // the checkpoint saved.
    MetricSummary Depth = M.summary(metric::CheckpointReuseDepth);
    EXPECT_EQ(Depth.Count, R.Accel.IncrementalInferences);
    EXPECT_GT(Depth.Count, 0u);
    EXPECT_NEAR(Depth.Mean * double(Depth.Count),
                double(R.Accel.DeclInferencesSaved), 1e-6);
    EXPECT_GT(M.summary(metric::CandidatesPerNode).Count, 0u);
    EXPECT_FALSE(M.render().empty());
  }
}

TEST(TraceMetricsTest, TriageRunObservesRemovalCounts) {
  TraceSink Sink;
  runSeminalOnSource(TwoErrors, tracedOptions(&Sink));
  Metrics M = Metrics::fromTrace(Sink.snapshot());
  EXPECT_GT(M.summary(metric::TriageRemovals).Count, 0u);
}

TEST(TraceMetricsTest, SliceSeriesComeFromTheSliceSpan) {
  TraceSink Sink;
  SeminalOptions Opts = tracedOptions(&Sink);
  Opts.Search.ComputeSlice = true;
  SeminalReport R = runSeminalOnSource(Fig2, Opts);
  ASSERT_TRUE(R.Slice.has_value());
  Metrics M = Metrics::fromTrace(Sink.snapshot());
  MetricSummary Size = M.summary(metric::SliceSize);
  EXPECT_EQ(Size.Count, 1u);
  EXPECT_EQ(Size.Max, double(R.Slice->Influence.size()));
  EXPECT_EQ(M.summary(metric::SlicePruneRatio).Count, 1u);
}
