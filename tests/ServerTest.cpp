//===- ServerTest.cpp - Search-as-a-service daemon tests -------------------==//
//
// The server's contract (DESIGN.md section 13): suggestions served from
// a warm session are byte-identical to a cold one-shot runSeminal of
// the same source -- session retention only skips work, never changes
// answers -- warm-reuse counters actually rise on an edit-resubmit, and
// a resubmit of the same bytes replays the previous answer unsearched.
// Also pins the protocol (malformed lines get an error reply, never a
// dropped connection), the stdio and Unix-socket transports, and the
// mid-stream-disconnect behavior (the session survives, only the reply
// is lost).
//
//===----------------------------------------------------------------------===//

#include "server/MetricsHttp.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "server/Session.h"

#include "core/Message.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "minicaml/Parser.h"
#include "obs/Log.h"
#include "obs/SlowTraceRing.h"
#include "support/Json.h"
#include "support/Profiler.h"
#include "support/Rng.h"
#include "support/Trace.h" // jsonEscape

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace seminal;
using namespace seminal::server;

namespace {

// A three-decl program whose error sits in the last decl, plus an
// edited variant that only touches that failing decl: the shape the
// editor loop produces, and the one session retention accelerates.
const char *BaseSource = "let inc x = x + 1\n"
                         "let twice f y = f (f y)\n"
                         "let out = twice inc true\n";
const char *EditedSource = "let inc x = x + 1\n"
                           "let twice f y = f (f y)\n"
                           "let out = twice inc false\n";

/// Renders a one-shot (cold, oracle-per-run) report the way Session
/// does, so the comparison is string equality end to end.
std::vector<std::string> oneShotMessages(const std::string &Source,
                                         std::string *Conventional) {
  SeminalOptions Opts;
  SeminalReport R = runSeminalOnSource(Source, Opts);
  EXPECT_FALSE(R.SyntaxError.has_value());
  EXPECT_FALSE(R.InputTypechecks);
  if (Conventional)
    *Conventional = R.conventionalMessage();
  std::vector<std::string> Out;
  for (const Suggestion &S : R.Suggestions)
    Out.push_back(renderSuggestion(S, Opts.Message));
  return Out;
}

std::vector<std::string> outcomeMessages(const CheckOutcome &O) {
  std::vector<std::string> Out;
  for (const auto &S : O.Suggestions)
    Out.push_back(S.Message);
  return Out;
}

uint64_t warmTotal(const AccelCounters &C) {
  return C.SessionPrefixHits + C.SessionSeedAdoptions;
}

json::Value parseReply(const std::string &Line) {
  json::ParseResult P = json::parse(Line);
  EXPECT_TRUE(P.ok()) << Line;
  EXPECT_TRUE(P.Doc->isObject()) << Line;
  return std::move(*P.Doc);
}

std::string checkLine(int Id, const std::string &SessionName,
                      const std::string &Source) {
  std::string Line = "{\"method\":\"check\",\"id\":" + std::to_string(Id) +
                     ",\"session\":\"" + SessionName + "\",\"source\":\"";
  Line += jsonEscape(Source);
  Line += "\"}";
  return Line;
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServerProtocolTest, ParsesCheckRequest) {
  Request R = parseRequest("{\"method\":\"check\",\"id\":7,\"session\":\"s\","
                           "\"source\":\"let x = 1\",\"max_suggestions\":3,"
                           "\"report\":true}");
  EXPECT_EQ(R.TheMethod, Request::Method::Check);
  EXPECT_EQ(R.Id, "7");
  EXPECT_EQ(R.Session, "s");
  EXPECT_EQ(R.Source, "let x = 1");
  EXPECT_EQ(R.MaxSuggestions, 3u);
  EXPECT_TRUE(R.WantReport);
}

TEST(ServerProtocolTest, EchoesStringAndMissingIds) {
  EXPECT_EQ(parseRequest("{\"method\":\"ping\",\"id\":\"a-1\"}").Id,
            "\"a-1\"");
  EXPECT_EQ(parseRequest("{\"method\":\"ping\"}").Id, "null");
}

TEST(ServerProtocolTest, MalformedLinesComeBackAsInvalid) {
  EXPECT_EQ(parseRequest("not json").TheMethod, Request::Method::Invalid);
  EXPECT_EQ(parseRequest("[1,2]").TheMethod, Request::Method::Invalid);
  EXPECT_EQ(parseRequest("{\"id\":1}").TheMethod, Request::Method::Invalid);
  EXPECT_EQ(parseRequest("{\"method\":\"nope\"}").TheMethod,
            Request::Method::Invalid);
  // A check without a source is malformed but keeps its id for the
  // error reply.
  Request R = parseRequest("{\"method\":\"check\",\"id\":4}");
  EXPECT_EQ(R.TheMethod, Request::Method::Invalid);
  EXPECT_EQ(R.Id, "4");
  EXPECT_FALSE(R.Error.empty());
}

TEST(ServerProtocolTest, ProfileRequestsClampSecondsAndValidateFormat) {
  Request R = parseRequest("{\"method\":\"profile\",\"id\":1}");
  EXPECT_EQ(R.TheMethod, Request::Method::Profile);
  EXPECT_EQ(R.ProfileSeconds, 1u) << "default window is one second";
  // Seconds clamp into 1..30 instead of rejecting: an operator typo
  // must not turn a diagnostic request into an error.
  EXPECT_EQ(parseRequest("{\"method\":\"profile\",\"seconds\":999}")
                .ProfileSeconds,
            30u);
  EXPECT_EQ(parseRequest("{\"method\":\"profile\",\"seconds\":-5}")
                .ProfileSeconds,
            1u);
  EXPECT_EQ(parseRequest("{\"method\":\"profile\",\"seconds\":7}")
                .ProfileSeconds,
            7u);
  EXPECT_EQ(parseRequest("{\"method\":\"profile\",\"format\":\"json\"}")
                .Format,
            "json");
  // An unknown format is malformed, same rule as the metrics verb.
  EXPECT_EQ(parseRequest("{\"method\":\"profile\",\"format\":\"xml\"}")
                .TheMethod,
            Request::Method::Invalid);
}

TEST(ServerProtocolTest, CheckReplyBytesArePinned) {
  // Outcomes built by hand, so the bytes of a check reply do not depend
  // on the search: the members, their order, string escapes (quote,
  // backslash, newline, return, tab, a control byte, UTF-8 passed
  // through), integers, and wall_seconds as an ostream prints a double.
  CheckOutcome Answer;
  Answer.FailingDecl = 2;
  Answer.BudgetExhausted = true;
  Answer.Conventional =
      "Error: \"x\" \\ a\nb\rc\td\x01 e \xCE\xBB \xE2\x86\x92 f";
  CheckOutcome::RenderedSuggestion First;
  First.Rank = 1;
  First.Kind = "constructive";
  First.Layer = "triage";
  First.Description = "swap \"f\" args";
  First.Path = "2.1";
  First.Message = "Try replacing\n  f x\nwith\n  x f\nof type int -> \\int";
  CheckOutcome::RenderedSuggestion Second;
  Second.Rank = 2;
  Second.Kind = "removal";
  Second.Layer = "removal";
  Second.Description = "remove\tit";
  Second.Path = "2";
  Second.Message = "\xE2\x9C\x93 done";
  Answer.Suggestions = {First, Second};
  Answer.OracleCalls = 18;
  Answer.InferenceRuns = 5;
  Answer.Accel.SessionPrefixHits = 3;
  Answer.Accel.SessionSeedAdoptions = 1;
  Answer.Accel.ArenaBytes = 14336;
  Answer.Accel.CacheHits = 2;
  Answer.CpuNs = 12345;
  Answer.WallSeconds = 1.5e-05;
  EXPECT_EQ(
      renderCheckResponse("7", Answer),
      "{\"id\":7,\"ok\":true,\"input_typechecks\":false,\"failing_decl\":2,"
      "\"budget_exhausted\":true,\"conventional\":\"Error: \\\"x\\\" \\\\ "
      "a\\nb\\rc\\td\\u0001 e \xCE\xBB \xE2\x86\x92 f\",\"suggestions\":["
      "{\"rank\":1,\"kind\":\"constructive\",\"layer\":\"triage\","
      "\"description\":\"swap \\\"f\\\" args\",\"path\":\"2.1\","
      "\"message\":\"Try replacing\\n  f x\\nwith\\n  x f\\nof type int -> "
      "\\\\int\"},{\"rank\":2,\"kind\":\"removal\",\"layer\":\"removal\","
      "\"description\":\"remove\\tit\",\"path\":\"2\","
      "\"message\":\"\xE2\x9C\x93 done\"}],\"oracle_calls\":18,"
      "\"inference_runs\":5,\"warm\":{"
      "\"prefix_hits\":3,\"seed_adoptions\":1,"
      "\"replayed\":false},\"wall_seconds\":1.5e-05,\"cost\":{\"cpu_ns\":12345,"
      "\"wall_ns\":15000,\"oracle_calls\":18,\"inference_runs\":5,"
      "\"arena_bytes\":14336,\"verdict_cache_hits\":2},\"evicted\":false}");

  CheckOutcome Syntax;
  Syntax.SyntaxError = "line 3, column 14: unexpected end of input";
  Syntax.Replayed = true;
  Syntax.Accel.ArenaBytes = 4096;
  EXPECT_EQ(renderCheckResponse("\"s-1\"", Syntax),
            "{\"id\":\"s-1\",\"ok\":true,\"syntax_error\":\"line 3, column 14: "
            "unexpected end of input\",\"oracle_calls\":0,\"inference_runs\":0,"
            "\"warm\":{\"prefix_hits\":0,\"seed_adoptions\":0,"
            "\"replayed\":true},\"wall_seconds\":0,"
            "\"cost\":{\"cpu_ns\":0,\"wall_ns\":0,\"oracle_calls\":0,"
            "\"inference_runs\":0,\"arena_bytes\":4096,"
            "\"verdict_cache_hits\":0},\"evicted\":false}");

  CheckOutcome Traced;
  Traced.InputTypechecks = true;
  Traced.OracleCalls = 1;
  Traced.InferenceRuns = 1;
  Traced.CpuNs = 250000000;
  Traced.WallSeconds = 0.25;
  Traced.Evicted = true;
  Traced.SlowTracePath = "/tmp/slow/\"7\".json";
  Traced.ReportJson = "{\"schema\":6,\"effort\":{}}";
  EXPECT_EQ(renderCheckResponse("null", Traced),
            "{\"id\":null,\"ok\":true,\"input_typechecks\":true,"
            "\"failing_decl\":-1,\"budget_exhausted\":false,"
            "\"conventional\":\"\",\"suggestions\":[],\"oracle_calls\":1,"
            "\"inference_runs\":1,"
            "\"warm\":{\"prefix_hits\":0,\"seed_adoptions\":0,"
            "\"replayed\":false},\"wall_seconds\":0.25,"
            "\"cost\":{\"cpu_ns\":250000000,\"wall_ns\":250000000,"
            "\"oracle_calls\":1,\"inference_runs\":1,\"arena_bytes\":0,"
            "\"verdict_cache_hits\":0},\"evicted\":true,"
            "\"slow_trace\":\"/tmp/slow/\\\"7\\\".json\","
            "\"report\":{\"schema\":6,\"effort\":{}}}");

  Syntax.WallSeconds = 12.5;
  std::string Long = renderCheckResponse("3", Syntax);
  EXPECT_NE(Long.find(",\"wall_seconds\":12.5,\"cost\":{\"cpu_ns\":0,"
                      "\"wall_ns\":12500000000,"),
            std::string::npos)
      << Long;
}

//===----------------------------------------------------------------------===//
// Session: warm answers must equal cold answers
//===----------------------------------------------------------------------===//

TEST(ServerSessionTest, ColdCheckMatchesOneShot) {
  std::string Conventional;
  std::vector<std::string> Expected =
      oneShotMessages(BaseSource, &Conventional);

  Session S("t", SessionConfig());
  CheckOutcome Out = S.check(BaseSource, CheckOptions());
  EXPECT_TRUE(Out.SyntaxError.empty());
  EXPECT_FALSE(Out.InputTypechecks);
  EXPECT_EQ(Out.Conventional, Conventional);
  EXPECT_EQ(outcomeMessages(Out), Expected);
  EXPECT_EQ(warmTotal(Out.Accel), 0u) << "first request cannot be warm";
}

TEST(ServerSessionTest, WarmResubmitIsByteIdenticalAndCounted) {
  Session S("t", SessionConfig());
  CheckOutcome Cold = S.check(BaseSource, CheckOptions());
  ASSERT_FALSE(Cold.Suggestions.empty());
  EXPECT_EQ(Cold.Accel.CheckpointSeeds, 1u);

  // Edit only the failing decl and resubmit: the conventional run takes
  // the two declarations before it from the session's environment, the
  // seed is that environment, and the answer is still exactly a cold
  // one-shot run's.
  std::string Conventional;
  std::vector<std::string> Expected =
      oneShotMessages(EditedSource, &Conventional);
  CheckOutcome Warm = S.check(EditedSource, CheckOptions());
  EXPECT_EQ(Warm.Conventional, Conventional);
  EXPECT_EQ(outcomeMessages(Warm), Expected);
  EXPECT_EQ(Warm.Accel.SessionPrefixHits, 2u) << "one per declaration";
  EXPECT_EQ(Warm.Accel.SessionSeedAdoptions, 1u);
  EXPECT_EQ(Warm.Accel.FullInferences, 0u);
  // Only the search's own candidate checks infer, warm as cold.
  EXPECT_EQ(Warm.InferenceRuns, Warm.Accel.IncrementalInferences);

  // A declaration appended after the failing one: the session's
  // declarations still open the program, so they are adopted again, and
  // the answer is still the cold one.
  std::string Appended = std::string(EditedSource) + "let after = inc 1\n";
  std::string AppendedConventional;
  std::vector<std::string> AppendedExpected =
      oneShotMessages(Appended, &AppendedConventional);
  CheckOutcome Tail = S.check(Appended, CheckOptions());
  EXPECT_EQ(Tail.Accel.SessionPrefixHits, 2u);
  EXPECT_EQ(Tail.Accel.SessionSeedAdoptions, 1u);
  EXPECT_EQ(Tail.Conventional, AppendedConventional);
  EXPECT_EQ(outcomeMessages(Tail), AppendedExpected);
  EXPECT_EQ(Tail.Conventional, Conventional);
  EXPECT_EQ(outcomeMessages(Tail), Expected);

  // An identical resubmit replays the whole answer without a search.
  CheckOutcome Replay = S.check(Appended, CheckOptions());
  EXPECT_TRUE(Replay.Replayed);
  EXPECT_EQ(Replay.OracleCalls, 0u);
  EXPECT_EQ(Replay.Conventional, AppendedConventional);
  EXPECT_EQ(outcomeMessages(Replay), AppendedExpected);
}

TEST(ServerSessionTest, CountersAreScopedPerRequest) {
  ServerEngine Engine;
  json::Value First = parseReply(Engine.handle(checkLine(1, "t", BaseSource)));
  json::Value Second =
      parseReply(Engine.handle(checkLine(2, "t", EditedSource)));
  // Per-request scoping: the second reply's counters describe only the
  // second request (the first, cold, took nothing from the session),
  // while the per-server scope, the engine's registry, sums both.
  ASSERT_TRUE(First.member("warm") && Second.member("warm"));
  EXPECT_EQ(First.member("warm")->getInt("prefix_hits", -1), 0);
  EXPECT_EQ(Second.member("warm")->getInt("prefix_hits", -1), 2);
  obs::OpsRegistry &R = Engine.registry();
  EXPECT_EQ(R.counter("seminal_inference_runs_total").value(),
            uint64_t(First.getInt("inference_runs", -1) +
                     Second.getInt("inference_runs", -1)));
  EXPECT_EQ(R.counter("seminal_oracle_calls_total").value(),
            uint64_t(First.getInt("oracle_calls", -1) +
                     Second.getInt("oracle_calls", -1)));
  for (const char *Kind : {"prefix_hits", "seed_adoptions"})
    EXPECT_EQ(R.counter("seminal_warm_hits_total", "", {{"kind", Kind}})
                  .value(),
              uint64_t(First.member("warm")->getInt(Kind, -1) +
                       Second.member("warm")->getInt(Kind, -1)))
        << Kind;
}

TEST(ServerSessionTest, SyntaxErrorLeavesWarmStateIntact) {
  Session S("t", SessionConfig());
  S.check(BaseSource, CheckOptions());
  CheckOutcome Bad = S.check("let x = ", CheckOptions());
  EXPECT_FALSE(Bad.SyntaxError.empty());
  CheckOutcome Warm = S.check(EditedSource, CheckOptions());
  EXPECT_GT(warmTotal(Warm.Accel), 0u)
      << "a syntax error in between must not cool the session";
}

TEST(ServerSessionTest, ResetDropsWarmState) {
  Session S("t", SessionConfig());
  S.check(BaseSource, CheckOptions());
  S.reset();
  CheckOutcome Out = S.check(EditedSource, CheckOptions());
  EXPECT_EQ(warmTotal(Out.Accel), 0u);
}

TEST(ServerSessionTest, EvictionGoesColdButStaysCorrect) {
  SessionConfig Config;
  Config.ArenaEvictBytes = 1; // every request crosses the watermark
  Session S("t", Config);
  CheckOutcome First = S.check(BaseSource, CheckOptions());
  EXPECT_TRUE(First.Evicted);
  std::vector<std::string> Expected = oneShotMessages(EditedSource, nullptr);
  CheckOutcome Second = S.check(EditedSource, CheckOptions());
  EXPECT_EQ(warmTotal(Second.Accel), 0u) << "evicted sessions run cold";
  EXPECT_EQ(outcomeMessages(Second), Expected);
  EXPECT_TRUE(Second.Evicted);
}

TEST(ServerSessionTest, EvictionCountsTheCheckpointsTypes) {
  // Few AST nodes per line, but each declaration's type is one list
  // deeper than the one before, so the retained checkpoint holds a
  // quadratic number of type nodes: 300 lines of source retain over a
  // megabyte of types, which the watermark must count.
  std::string Source = "let x0 = 1\n";
  for (int I = 1; I <= 300; ++I)
    Source += "let x" + std::to_string(I) + " = [x" + std::to_string(I - 1) +
              "]\n";
  Source += "let bad = x300 + 1\n";
  SessionConfig Config;
  Config.ArenaEvictBytes = 256 << 10;
  Session S("t", Config);
  CheckOutcome Out = S.check(Source, CheckOptions());
  EXPECT_GT(Out.Accel.ArenaBytes, Config.ArenaEvictBytes);
  EXPECT_TRUE(Out.Evicted);
  EXPECT_EQ(Out.ArenaBytes, 0u) << "eviction drops every retained byte";
  EXPECT_EQ(outcomeMessages(Out), oneShotMessages(Source, nullptr));
  CheckOutcome Again = S.check(std::string(Source) + "\n", CheckOptions());
  EXPECT_EQ(warmTotal(Again.Accel), 0u) << "evicted sessions run cold";
}

//===----------------------------------------------------------------------===//
// Replay: a resubmit of the same bytes serves the previous answer
//===----------------------------------------------------------------------===//

/// Every answer member of a check reply equals a cold one-shot run of
/// the same source, rendered the way Session renders it.
void expectColdAnswer(const json::Value &Reply, const std::string &Source) {
  SeminalOptions Opts;
  SeminalReport R = runSeminalOnSource(Source, Opts);
  ASSERT_FALSE(R.SyntaxError.has_value());
  EXPECT_EQ(Reply.getBool("input_typechecks", !R.InputTypechecks),
            R.InputTypechecks);
  EXPECT_EQ(Reply.getInt("failing_decl", -2),
            R.FailingDeclIndex ? int64_t(*R.FailingDeclIndex) : -1);
  EXPECT_EQ(Reply.getBool("budget_exhausted", !R.BudgetExhausted),
            R.BudgetExhausted);
  EXPECT_EQ(Reply.getString("conventional", "<missing>"),
            R.InputTypechecks ? "" : R.conventionalMessage());
  const json::Value *Got = Reply.member("suggestions");
  ASSERT_TRUE(Got && Got->isArray());
  ASSERT_EQ(Got->arrayValue().size(), R.Suggestions.size()) << Source;
  for (size_t I = 0; I < R.Suggestions.size(); ++I) {
    const json::Value &G = Got->arrayValue()[I];
    const Suggestion &Want = R.Suggestions[I];
    EXPECT_EQ(G.getInt("rank", 0), int64_t(I) + 1);
    EXPECT_EQ(G.getString("kind"), changeKindName(Want.Kind));
    EXPECT_EQ(G.getString("layer"), suggestionLayer(Want));
    EXPECT_EQ(G.getString("description"), Want.Description);
    EXPECT_EQ(G.getString("path"), Want.Path.str());
    EXPECT_EQ(G.getString("message"), renderSuggestion(Want, Opts.Message));
  }
}

/// The same check for a session's outcome, rendered as its reply.
void expectColdAnswer(const CheckOutcome &Out, const std::string &Source) {
  expectColdAnswer(parseReply(renderCheckResponse("1", Out)), Source);
}

/// The answer fields of two outcomes are equal.
void expectSameAnswer(const CheckOutcome &A, const CheckOutcome &B) {
  EXPECT_EQ(A.SyntaxError, B.SyntaxError);
  EXPECT_EQ(A.InputTypechecks, B.InputTypechecks);
  EXPECT_EQ(A.FailingDecl, B.FailingDecl);
  EXPECT_EQ(A.BudgetExhausted, B.BudgetExhausted);
  EXPECT_EQ(A.Conventional, B.Conventional);
  ASSERT_EQ(A.Suggestions.size(), B.Suggestions.size());
  for (size_t I = 0; I < A.Suggestions.size(); ++I) {
    EXPECT_EQ(A.Suggestions[I].Rank, B.Suggestions[I].Rank);
    EXPECT_EQ(A.Suggestions[I].Kind, B.Suggestions[I].Kind);
    EXPECT_EQ(A.Suggestions[I].Layer, B.Suggestions[I].Layer);
    EXPECT_EQ(A.Suggestions[I].Description, B.Suggestions[I].Description);
    EXPECT_EQ(A.Suggestions[I].Path, B.Suggestions[I].Path);
    EXPECT_EQ(A.Suggestions[I].Message, B.Suggestions[I].Message);
  }
}

TEST(ServerReplayTest, CorpusResubmitsReplayTheColdAnswer) {
  CorpusOptions CO;
  CO.Scale = 0.5;
  Corpus C = generateCorpus(CO);
  ASSERT_FALSE(C.Analyzed.empty());
  ServerEngine Engine;
  int Id = 0;
  for (size_t I = 0; I < C.Analyzed.size(); ++I) {
    const std::string &Source = C.Analyzed[I].Source;
    std::string Sess = "file" + std::to_string(I);
    json::Value First = parseReply(Engine.handle(checkLine(++Id, Sess, Source)));
    json::Value Second =
        parseReply(Engine.handle(checkLine(++Id, Sess, Source)));
    const json::Value *W1 = First.member("warm");
    const json::Value *W2 = Second.member("warm");
    ASSERT_TRUE(W1 && W2);
    EXPECT_FALSE(W1->getBool("replayed", true));
    EXPECT_TRUE(W2->getBool("replayed", false)) << Source;
    EXPECT_GT(First.getInt("oracle_calls", 0), 0);
    EXPECT_EQ(Second.getInt("oracle_calls", -1), 0);
    EXPECT_EQ(Second.getInt("inference_runs", -1), 0);
    expectColdAnswer(First, Source);
    expectColdAnswer(Second, Source);
  }
  obs::OpsRegistry &R = Engine.registry();
  EXPECT_EQ(R.counter("seminal_checks_total").value(), 2 * C.Analyzed.size());
  EXPECT_EQ(R.counter("seminal_replays_total").value(), C.Analyzed.size());
}

TEST(ServerReplayTest, SyntaxErrorReplays) {
  Session S("t", SessionConfig());
  std::string Bad = std::string(BaseSource) + "let broken = ";
  CheckOutcome First = S.check(Bad, CheckOptions());
  ASSERT_FALSE(First.SyntaxError.empty());
  EXPECT_FALSE(First.Replayed);
  CheckOutcome Second = S.check(Bad, CheckOptions());
  EXPECT_TRUE(Second.Replayed);
  expectSameAnswer(Second, First);
}

TEST(ServerReplayTest, LimitsReportsAndResetsSearchAgain) {
  Session S("t", SessionConfig());
  auto Searched = [](const CheckOutcome &O) {
    return !O.Replayed && O.OracleCalls > 0;
  };
  CheckOptions Plain;
  CheckOutcome First = S.check(BaseSource, Plain);
  EXPECT_TRUE(Searched(First));
  EXPECT_TRUE(S.check(BaseSource, Plain).Replayed);

  // Either limit is part of the key: a change searches again, and the
  // next identical request replays the capped answer.
  CheckOptions OneSuggestion;
  OneSuggestion.MaxSuggestions = 1;
  CheckOutcome Capped = S.check(BaseSource, OneSuggestion);
  EXPECT_TRUE(Searched(Capped));
  EXPECT_EQ(Capped.Suggestions.size(), 1u);
  CheckOutcome CappedAgain = S.check(BaseSource, OneSuggestion);
  EXPECT_TRUE(CappedAgain.Replayed);
  expectSameAnswer(CappedAgain, Capped);

  CheckOptions FewCalls;
  FewCalls.MaxOracleCalls = 3;
  CheckOutcome Tight = S.check(BaseSource, FewCalls);
  EXPECT_TRUE(Searched(Tight));
  EXPECT_TRUE(Tight.BudgetExhausted);
  CheckOutcome TightAgain = S.check(BaseSource, FewCalls);
  EXPECT_TRUE(TightAgain.Replayed);
  expectSameAnswer(TightAgain, Tight);

  // A report describes a search, so a request for one always runs it.
  CheckOptions Report;
  Report.WantReport = true;
  CheckOutcome Reported = S.check(BaseSource, Report);
  EXPECT_TRUE(Searched(Reported));
  EXPECT_FALSE(Reported.ReportJson.empty());
  EXPECT_TRUE(Searched(S.check(BaseSource, Report)));
  // The searched check replaced the remembered one; a plain resubmit
  // replays its answer without its report.
  CheckOutcome AfterReport = S.check(BaseSource, Plain);
  EXPECT_TRUE(AfterReport.Replayed);
  EXPECT_TRUE(AfterReport.ReportJson.empty());
  expectSameAnswer(AfterReport, First);

  S.reset();
  CheckOutcome AfterReset = S.check(BaseSource, Plain);
  EXPECT_TRUE(Searched(AfterReset)) << "reset forgets the answer too";
  expectSameAnswer(AfterReset, First);
}

TEST(ServerReplayTest, EvictionKeepsTheAnswer) {
  SessionConfig Config;
  Config.ArenaEvictBytes = 1; // every search crosses the watermark
  Session S("t", Config);
  CheckOutcome First = S.check(BaseSource, CheckOptions());
  ASSERT_TRUE(First.Evicted);
  CheckOutcome Second = S.check(BaseSource, CheckOptions());
  EXPECT_TRUE(Second.Replayed);
  EXPECT_FALSE(Second.Evicted);
  expectSameAnswer(Second, First);
  EXPECT_EQ(outcomeMessages(Second), oneShotMessages(BaseSource, nullptr));
}

TEST(ServerReplayTest, ReplayBillsItsOwnClocksAndNoSearch) {
  Session S("t", SessionConfig());
  CheckOutcome First = S.check(BaseSource, CheckOptions());
  CheckOutcome Replay = S.check(BaseSource, CheckOptions());
  ASSERT_TRUE(Replay.Replayed);
  EXPECT_EQ(Replay.OracleCalls, 0u);
  EXPECT_EQ(Replay.InferenceRuns, 0u);
  EXPECT_EQ(warmTotal(Replay.Accel), 0u);
  EXPECT_EQ(Replay.Accel.CacheHits, 0u);
  EXPECT_GT(Replay.wallNs(), 0u);
  EXPECT_TRUE(Replay.ReportJson.empty());
  EXPECT_TRUE(Replay.SlowTracePath.empty());
  // The retained level is the session's current one.
  EXPECT_GT(First.ArenaBytes, 0u);
  EXPECT_EQ(Replay.ArenaBytes, First.ArenaBytes);
  EXPECT_EQ(Replay.Accel.ArenaBytes, First.ArenaBytes);
  EXPECT_EQ(S.checks(), 2u);
}

TEST(ServerReplayTest, EngineLogsAndCountsReplaysAndTracesNone) {
  std::string Dir =
      "/tmp/seminal_replay_trace_" + std::to_string(::getpid());
  std::string Cmd = "rm -rf '" + Dir + "'";
  (void)std::system(Cmd.c_str());
  obs::SlowTraceRing Ring(Dir, 4);
  std::ostringstream LogOut;
  obs::Logger Log(LogOut, obs::LogLevel::Info);
  ServerOptions Opts;
  Opts.Log = &Log;
  Opts.SlowTraces = &Ring;
  Opts.TraceSlowMs = 0.0; // every searched check exports a trace
  ServerEngine Engine(Opts);

  json::Value First = parseReply(Engine.handle(checkLine(1, "r", BaseSource)));
  EXPECT_FALSE(First.getString("slow_trace").empty());
  json::Value Second =
      parseReply(Engine.handle(checkLine(2, "r", BaseSource)));
  ASSERT_TRUE(Second.member("warm"));
  EXPECT_TRUE(Second.member("warm")->getBool("replayed", false));
  EXPECT_FALSE(Second.member("slow_trace"))
      << "a replay runs no search, so it records no trace";
  EXPECT_EQ(Ring.captured(), 1u);

  obs::OpsRegistry &R = Engine.registry();
  EXPECT_EQ(R.counter("seminal_replays_total").value(), 1u);
  json::Value Stats =
      parseReply(Engine.handle("{\"method\":\"stats\",\"id\":3}"));
  EXPECT_EQ(Stats.getInt("replays", -1), 1);
  // The replay is the warmest check there is.
  EXPECT_EQ(
      R.histogram("seminal_request_latency_us", "", {{"state", "cold"}}).count(),
      1u);
  EXPECT_EQ(
      R.histogram("seminal_request_latency_us", "", {{"state", "warm"}}).count(),
      1u);

  std::string Text = LogOut.str();
  size_t SecondLine = Text.find("id=2");
  ASSERT_NE(SecondLine, std::string::npos) << Text;
  EXPECT_NE(Text.find("replayed=false"), std::string::npos) << Text;
  EXPECT_NE(Text.find("replayed=true", SecondLine), std::string::npos) << Text;
  (void)std::system(Cmd.c_str());
}

/// The answer members of a check reply: the bytes between "ok":true and
/// the counters.
std::string answerBytes(const std::string &Reply) {
  const std::string Open = "\"ok\":true", Close = ",\"oracle_calls\"";
  size_t Begin = Reply.find(Open);
  size_t End = Reply.find(Close);
  EXPECT_NE(Begin, std::string::npos) << Reply;
  EXPECT_NE(End, std::string::npos) << Reply;
  if (Begin == std::string::npos || End == std::string::npos)
    return "";
  Begin += Open.size();
  return Reply.substr(Begin, End - Begin);
}

TEST(ServerReplayTest, ReplaySplicesTheSearchedAnswer) {
  ServerEngine Engine;
  std::string Bad = std::string(BaseSource) + "let broken = ";
  for (const std::string &Source : {std::string(BaseSource), Bad}) {
    std::string Searched = Engine.handle(checkLine(1, "splice", Source));
    std::string Replayed = Engine.handle(checkLine(2, "splice", Source));
    ASSERT_NE(Replayed.find("\"replayed\":true"), std::string::npos)
        << Replayed;
    EXPECT_FALSE(answerBytes(Searched).empty());
    EXPECT_EQ(answerBytes(Replayed), answerBytes(Searched));
  }

  // The session renders the answer it remembers; an outcome without one
  // (as tests build them) renders the same bytes from its fields.
  Session S("t", SessionConfig());
  for (const std::string &Source : {std::string(BaseSource), Bad}) {
    CheckOutcome Out = S.check(Source, CheckOptions());
    ASSERT_TRUE(Out.RenderedAnswer) << Source;
    CheckOutcome Unrendered = Out;
    Unrendered.RenderedAnswer.reset();
    EXPECT_EQ(renderCheckResponse("1", Unrendered),
              renderCheckResponse("1", Out));
    CheckOutcome Replay = S.check(Source, CheckOptions());
    ASSERT_TRUE(Replay.Replayed);
    EXPECT_EQ(Replay.RenderedAnswer, Out.RenderedAnswer)
        << "a replay shares the searched check's rendering";
  }
}

//===----------------------------------------------------------------------===//
// Retention keys: the session's own declarations
//===----------------------------------------------------------------------===//

TEST(SessionRetentionTest, WhitespacePrefixEditKeepsEveryProbeWarm) {
  // Spans are not part of the key: a prefix that only moved is taken from
  // the session's environment, the opening probe and every localization
  // probe are answered from what the conventional run proved, and the
  // environment is the seed again.
  Session S("t", SessionConfig());
  S.check(std::string(BaseSource) + "let after = 1\n", CheckOptions());
  std::string Moved = "\nlet inc x =   x + 1\n\n"
                      "let twice f y = f (f y)\n"
                      "let out = twice inc true\n"
                      "let after = 1\n";
  CheckOutcome Warm = S.check(Moved, CheckOptions());
  ASSERT_EQ(Warm.FailingDecl, 2);
  EXPECT_EQ(Warm.Accel.SessionPrefixHits, 2u) << "one per declaration";
  EXPECT_EQ(Warm.Accel.SessionSeedAdoptions, 1u);
  EXPECT_EQ(Warm.Accel.CacheHits, 4u) << "the opening probe and three more";
  EXPECT_EQ(Warm.Accel.FullInferences, 0u);
  expectColdAnswer(Warm, Moved);
}

TEST(SessionRetentionTest, TypeAndExceptionDeclarationsKeyInFull) {
  // A session re-adopts a retained environment on declaration equality
  // alone, so type and exception declarations compare by their whole
  // definition, not by name.
  caml::ParseResult T = caml::parseProgram(
      "type t = A | B\ntype t = A | C\ntype t = A | B\n"
      "exception E of int\nexception E of string\n");
  ASSERT_TRUE(T.ok());
  const std::vector<caml::DeclPtr> &D = T.Prog->Decls;
  EXPECT_FALSE(D[0]->equals(*D[1]));
  EXPECT_TRUE(D[0]->equals(*D[2]));
  EXPECT_FALSE(D[3]->equals(*D[4]));

  Session S("t", SessionConfig());
  S.check("type t = A | B\nlet g x = match x with A -> 1 | B -> 2\n"
          "let y = g 1\n",
          CheckOptions());
  std::string Changed = "type t = A of int | B\n"
                        "let g x = match x with A -> 1 | B -> 2\n"
                        "let y = g 1\n";
  CheckOutcome Out = S.check(Changed, CheckOptions());
  EXPECT_EQ(Out.Accel.SessionPrefixHits, 0u);
  EXPECT_EQ(Out.Accel.SessionSeedAdoptions, 0u);
  expectColdAnswer(Out, Changed);
}

TEST(SessionRetentionTest, FailedTypeDeclarationIsNotRetained) {
  // A failed type or exception declaration may leave its constructors
  // behind in the environment, so the session must not start the next
  // request from that environment, though its prefix still matches.
  for (const char *Failed : {"type t = A | B of undefined_type\n",
                             "exception A of undefined_type\n"}) {
    Session S("t", SessionConfig());
    CheckOutcome First =
        S.check(std::string("let a = 1\n") + Failed + "let x = A\n",
                CheckOptions());
    ASSERT_EQ(First.FailingDecl, 1) << Failed;
    const std::string Next = "let a = 1\nlet x = A\n";
    CheckOutcome Out = S.check(Next, CheckOptions());
    EXPECT_EQ(Out.Accel.SessionPrefixHits, 0u) << Failed;
    EXPECT_FALSE(Out.InputTypechecks) << "A is unbound: " << Failed;
    expectColdAnswer(Out, Next);
  }
}

/// The first integer or string literal in \p E, preorder, or null.
const caml::Expr *firstLiteral(const caml::Expr &E) {
  if (E.kind() == caml::Expr::Kind::IntLit ||
      E.kind() == caml::Expr::Kind::StringLit)
    return &E;
  for (unsigned C = 0; C < E.numChildren(); ++C)
    if (const caml::Expr *L = firstLiteral(*E.child(C)))
      return L;
  return nullptr;
}

/// \p Source with declaration \p Index edited the way an editor would:
/// its first literal changed, or a new declaration inserted before it
/// when it has none.
std::string editDecl(const std::string &Source, const caml::Program &P,
                     size_t Index) {
  const caml::Decl &D = *P.Decls[Index];
  const caml::Expr *L = D.Rhs ? firstLiteral(*D.Rhs) : nullptr;
  std::string Out = Source;
  if (!L)
    return Out.insert(D.Span.Begin.Offset, "let fuzz_pad = 0\n");
  size_t Begin = L->Span.Begin.Offset;
  if (L->kind() == caml::Expr::Kind::StringLit)
    return Out.insert(Begin + 1, "z");
  return Out.replace(Begin, L->Span.EndOffset - Begin,
                     std::to_string(L->IntValue + 1));
}

/// Seeded editor sessions over corpus files: prefix edits, edits and
/// rewrites of the failing declaration, edits after it, whitespace-only
/// prefix edits, and reverts, all through one Session. Retention may only
/// skip work.
class SessionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SessionFuzzTest, EditSequencesMatchColdRuns) {
  static const Corpus C = [] {
    CorpusOptions CO;
    CO.Scale = 0.5;
    return generateCorpus(CO);
  }();
  ASSERT_FALSE(C.Analyzed.empty());
  Rng R(uint64_t(GetParam()) * 7919 + 17);
  AccelCounters Warm;
  for (int File = 0; File < 3; ++File) {
    Session S("fuzz", SessionConfig());
    std::vector<std::string> History = {R.pick(C.Analyzed).Source};
    int Failing = S.check(History.back(), CheckOptions()).FailingDecl;
    for (int Step = 0; Step < 8; ++Step) {
      const std::string &Cur = History.back();
      caml::ParseResult PR = caml::parseProgram(Cur);
      ASSERT_TRUE(PR.ok()) << Cur;
      const caml::Program &P = *PR.Prog;
      size_t Prefix = Failing < 0 ? P.Decls.size() : size_t(Failing);
      // A prefix declaration's index (the first one's when the prefix is
      // empty).
      auto InPrefix = [&] {
        return size_t(R.range(0, int64_t(std::max<size_t>(Prefix, 1)) - 1));
      };
      std::string Next;
      switch (R.range(0, 5)) {
      case 0: // A prefix declaration.
        Next = editDecl(Cur, P, InPrefix());
        break;
      case 1: // The failing declaration.
        Next = editDecl(Cur, P, Failing < 0 ? 0 : size_t(Failing));
        break;
      case 2: { // The failing declaration rewritten (fixed, or not).
        const caml::Decl &D = *P.Decls[Failing < 0 ? 0 : size_t(Failing)];
        Next = Cur;
        Next.replace(D.Span.Begin.Offset,
                     D.Span.EndOffset - D.Span.Begin.Offset,
                     "let fuzz_fix = 0");
        break;
      }
      case 3: // After the failure.
        Next = Cur + "let fuzz_tail = 1\n";
        break;
      case 4: // Whitespace only, inside the prefix.
        Next = Cur;
        Next.insert(P.Decls[InPrefix()]->Span.Begin.Offset, "\n  ");
        break;
      default: // Back to an earlier version.
        Next = R.pick(History);
        break;
      }
      CheckOutcome Out = S.check(Next, CheckOptions());
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + " step " +
                   std::to_string(Step) + "\n" + Next);
      expectColdAnswer(Out, Next);
      Warm += Out.Accel;
      Failing = Out.FailingDecl;
      History.push_back(std::move(Next));
    }
  }
  EXPECT_GT(Warm.SessionPrefixHits, 0u) << "the fuzz must exercise the keys";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionFuzzTest, ::testing::Range(0, 6));

//===----------------------------------------------------------------------===//
// Engine: routing, stats, malformed input
//===----------------------------------------------------------------------===//

TEST(ServerEngineTest, ChecksMatchOneShotThroughTheWire) {
  std::string Conventional;
  std::vector<std::string> Expected =
      oneShotMessages(BaseSource, &Conventional);

  ServerEngine Engine;
  std::string Line = "{\"method\":\"check\",\"id\":1,\"session\":\"e\","
                     "\"source\":\"";
  Line += jsonEscape(BaseSource);
  Line += "\"}";
  json::Value Reply = parseReply(Engine.handle(Line));
  EXPECT_TRUE(Reply.getBool("ok", false));
  EXPECT_EQ(Reply.getString("conventional"), Conventional);
  const json::Value *Suggestions = Reply.member("suggestions");
  ASSERT_TRUE(Suggestions && Suggestions->isArray());
  ASSERT_EQ(Suggestions->arrayValue().size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Suggestions->arrayValue()[I].getString("message"), Expected[I]);
}

TEST(ServerEngineTest, WarmCountersRiseInResponses) {
  ServerEngine Engine;
  auto CheckLine = [](const char *Source) {
    std::string Line = "{\"method\":\"check\",\"id\":1,\"session\":\"w\","
                       "\"source\":\"";
    Line += jsonEscape(Source);
    Line += "\"}";
    return Line;
  };
  json::Value Cold = parseReply(Engine.handle(CheckLine(BaseSource)));
  const json::Value *ColdWarm = Cold.member("warm");
  ASSERT_TRUE(ColdWarm);
  EXPECT_EQ(ColdWarm->getInt("prefix_hits", -1), 0);

  json::Value Warm = parseReply(Engine.handle(CheckLine(EditedSource)));
  const json::Value *W = Warm.member("warm");
  ASSERT_TRUE(W);
  EXPECT_GT(W->getInt("prefix_hits", 0), 0);
  EXPECT_GT(W->getInt("seed_adoptions", 0), 0);
  EXPECT_EQ(W->member("verdict_reuses"), nullptr);

  // The engine's counters summed both requests.
  obs::OpsRegistry &R = Engine.registry();
  EXPECT_EQ(R.counter("seminal_checks_total").value(), 2u);
  EXPECT_GT(
      R.counter("seminal_warm_hits_total", "", {{"kind", "prefix_hits"}})
          .value(),
      0u);
}

TEST(ServerEngineTest, MalformedLineGetsErrorReplyAndSessionSurvives) {
  ServerEngine Engine;
  std::string Line = "{\"method\":\"check\",\"id\":1,\"session\":\"m\","
                     "\"source\":\"";
  Line += jsonEscape(BaseSource);
  Line += "\"}";
  Engine.handle(Line);

  json::Value Err = parseReply(Engine.handle("{\"oops\""));
  EXPECT_FALSE(Err.getBool("ok", true));
  EXPECT_FALSE(Err.getString("error").empty());
  json::Value Err2 = parseReply(
      Engine.handle("{\"method\":\"frobnicate\",\"id\":2}"));
  EXPECT_FALSE(Err2.getBool("ok", true));

  std::string Edited = "{\"method\":\"check\",\"id\":3,\"session\":\"m\","
                       "\"source\":\"";
  Edited += jsonEscape(EditedSource);
  Edited += "\"}";
  json::Value Warm = parseReply(Engine.handle(Edited));
  ASSERT_TRUE(Warm.member("warm"));
  EXPECT_GT(Warm.member("warm")->getInt("prefix_hits", 0), 0)
      << "malformed lines in between must not disturb the session";
  EXPECT_EQ(Engine.registry().counter("seminal_malformed_total").value(), 2u);
}

TEST(ServerEngineTest, OversizedIntegerLiteralGetsSyntaxErrorReply) {
  // Hostile bytes reach the lexer straight from the socket; a literal
  // that overflows a long must be answered, not take the daemon down.
  ServerEngine Engine;
  json::Value Bad = parseReply(Engine.handle(
      checkLine(1, "big", "let x = 99999999999999999999999\n")));
  EXPECT_TRUE(Bad.getBool("ok", false));
  EXPECT_NE(Bad.getString("syntax_error").find("integer literal out of range"),
            std::string::npos)
      << Bad.getString("syntax_error");

  // The same engine -- and the same session -- keeps answering.
  std::string Conventional;
  std::vector<std::string> Expected =
      oneShotMessages(BaseSource, &Conventional);
  json::Value Next = parseReply(Engine.handle(checkLine(2, "big", BaseSource)));
  EXPECT_TRUE(Next.getBool("ok", false));
  EXPECT_EQ(Next.getString("conventional"), Conventional);
  const json::Value *Suggestions = Next.member("suggestions");
  ASSERT_TRUE(Suggestions && Suggestions->isArray());
  ASSERT_EQ(Suggestions->arrayValue().size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Suggestions->arrayValue()[I].getString("message"), Expected[I]);
  EXPECT_EQ(Engine.registry().counter("seminal_checks_total").value(), 2u);
}

std::string repeat(const std::string &Text, unsigned Times) {
  std::string Out;
  for (unsigned I = 0; I < Times; ++I)
    Out += Text;
  return Out;
}

TEST(ServerEngineTest, TooDeeplyNestedSourcesGetSyntaxErrorReplies) {
  // Each used to overflow the stack of the shard worker that parsed it,
  // taking the daemon and every session down.
  ServerEngine Engine;
  int Id = 1;
  for (const std::string &Source :
       {"let x = " + repeat("(", 5000) + "1" + repeat(")", 5000),
        "let x = " + repeat("1 + ", 100000) + "1",
        "let x = " + repeat("raise ", 100000) + "Exit",
        "let f" + repeat(" a", 100000) + " = a"}) {
    json::Value Bad =
        parseReply(Engine.handle(checkLine(Id++, "deep", Source)));
    EXPECT_TRUE(Bad.getBool("ok", false));
    EXPECT_NE(Bad.getString("syntax_error").find("nesting deeper than"),
              std::string::npos)
        << Bad.getString("syntax_error");
  }

  // The same session keeps answering.
  std::string Conventional;
  std::vector<std::string> Expected =
      oneShotMessages(BaseSource, &Conventional);
  json::Value Next =
      parseReply(Engine.handle(checkLine(Id++, "deep", BaseSource)));
  EXPECT_TRUE(Next.getBool("ok", false));
  EXPECT_EQ(Next.getString("conventional"), Conventional);
  const json::Value *Suggestions = Next.member("suggestions");
  ASSERT_TRUE(Suggestions && Suggestions->isArray());
  EXPECT_EQ(Suggestions->arrayValue().size(), Expected.size());
}

TEST(ServerEngineTest, SourcesNestedToTheBoundAreSearchedOnAShard) {
  // A shard worker has a default thread stack; a declaration nested as
  // deeply as the parser allows must still be inferred, searched and
  // rendered there.
  ServerEngine Engine;
  const unsigned K = caml::MaxNestingDepth - 1;
  int Id = 1;
  for (const std::string &Source :
       {"let x = " + repeat("1 + ", K) + "\"s\"",
        "let x = " + repeat("(", K) + "succ \"s\"" + repeat(")", K),
        "let x = " + repeat("- ", K) + "\"s\"",
        "let x = " + repeat("raise ", K) + "\"s\"",
        "let f a" + repeat(" a", K - 1) + " = a + \"s\""}) {
    json::Value Reply =
        parseReply(Engine.handle(checkLine(Id++, "d", Source)));
    EXPECT_TRUE(Reply.getBool("ok", false));
    EXPECT_EQ(Reply.getString("syntax_error"), "");
    const json::Value *Suggestions = Reply.member("suggestions");
    ASSERT_TRUE(Suggestions && Suggestions->isArray());
    EXPECT_FALSE(Suggestions->arrayValue().empty()) << Source.substr(0, 32);
  }
}

TEST(ServerEngineTest, SessionsShardDeterministically) {
  ServerEngine Engine;
  EXPECT_EQ(Engine.shardOf("alpha"), Engine.shardOf("alpha"));
  EXPECT_LT(Engine.shardOf("alpha"), Engine.shards());
}

TEST(ServerEngineTest, PingStatsAndShutdown) {
  ServerEngine Engine;
  json::Value Pong = parseReply(Engine.handle("{\"method\":\"ping\",\"id\":1}"));
  EXPECT_TRUE(Pong.getBool("pong", false));
  json::Value Stats = parseReply(
      Engine.handle("{\"method\":\"stats\",\"id\":2}"));
  EXPECT_EQ(Stats.getInt("pings", -1), 1);
  EXPECT_FALSE(Engine.shutdownRequested());
  Engine.handle("{\"method\":\"shutdown\",\"id\":3}");
  EXPECT_TRUE(Engine.shutdownRequested());
}

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

TEST(ServerStdioTest, ServesJsonlStreams) {
  ServerEngine Engine;
  std::string Input = "{\"method\":\"ping\",\"id\":1}\n"
                      "this is not json\n"
                      "{\"method\":\"check\",\"id\":2,\"source\":\"";
  Input += jsonEscape(BaseSource);
  Input += "\"}\n";
  std::istringstream In(Input);
  std::ostringstream Out;
  serveStdio(Engine, In, Out);

  std::istringstream Lines(Out.str());
  std::string Line;
  size_t Replies = 0;
  bool SawError = false, SawCheck = false;
  while (std::getline(Lines, Line)) {
    ++Replies;
    json::Value Reply = parseReply(Line);
    if (!Reply.getBool("ok", true))
      SawError = true;
    if (Reply.member("suggestions"))
      SawCheck = true;
  }
  EXPECT_EQ(Replies, 3u) << "every line gets exactly one reply";
  EXPECT_TRUE(SawError);
  EXPECT_TRUE(SawCheck);
}

/// Input of one line, \p LineBytes long, then \p Tail, served 4 KiB at
/// a time. Notes whether \p Out held anything when the reader first
/// asked for more after reading past MaxRequestLineBytes.
class OverlongLineSource : public std::streambuf {
public:
  OverlongLineSource(size_t LineBytes, std::string Tail,
                     const std::ostringstream &Out)
      : LineBytes(LineBytes), Tail(std::move(Tail)), Out(Out) {}

  bool RepliedBeforeReadingOn = false;

protected:
  int_type underflow() override {
    if (Served > MaxRequestLineBytes && !Checked) {
      Checked = true;
      RepliedBeforeReadingOn = !Out.str().empty();
    }
    if (Served < LineBytes) {
      const size_t N = std::min(Block.size(), LineBytes - Served);
      Served += N;
      setg(Block.data(), Block.data(), Block.data() + N);
      return traits_type::to_int_type(Block[0]);
    }
    if (TailServed)
      return traits_type::eof();
    TailServed = true;
    setg(Tail.data(), Tail.data(), Tail.data() + Tail.size());
    return traits_type::to_int_type(Tail[0]);
  }

private:
  const size_t LineBytes;
  std::string Tail;
  const std::ostringstream &Out;
  std::string Block = std::string(4096, 'x');
  size_t Served = 0;
  bool Checked = false;
  bool TailServed = false;
};

TEST(ServerStdioTest, OverlongLineGetsAnErrorAndTheStreamGoesOn) {
  ServerEngine Engine;
  std::ostringstream Out;
  // The line runs on for twice the cap after it is known to be too long;
  // the reply must not wait for its end.
  OverlongLineSource Source(3 * MaxRequestLineBytes,
                            "\n{\"method\":\"ping\",\"id\":2}\n", Out);
  std::istream In(&Source);
  serveStdio(Engine, In, Out);
  EXPECT_TRUE(Source.RepliedBeforeReadingOn);

  std::istringstream Lines(Out.str());
  std::string Line;
  ASSERT_TRUE(std::getline(Lines, Line));
  json::Value Err = parseReply(Line);
  EXPECT_FALSE(Err.getBool("ok", true));
  EXPECT_EQ(Err.getString("error"),
            "malformed request: line longer than " +
                std::to_string(MaxRequestLineBytes) + " bytes");
  ASSERT_TRUE(std::getline(Lines, Line));
  EXPECT_TRUE(parseReply(Line).getBool("pong", false));
  EXPECT_FALSE(std::getline(Lines, Line));
  EXPECT_EQ(Engine.registry().counter("seminal_malformed_total").value(), 1u);
}

class SocketClient {
public:
  explicit SocketClient(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
    Connected = Fd >= 0 && ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                                     sizeof(Addr)) == 0;
  }
  ~SocketClient() { close(); }

  bool send(const std::string &Line) { return sendRaw(Line + "\n"); }

  bool sendRaw(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, 0);
      if (N <= 0)
        return false;
      Off += size_t(N);
    }
    return true;
  }

  std::string recvLine() {
    std::string Buf;
    char C;
    while (::recv(Fd, &C, 1, 0) == 1) {
      if (C == '\n')
        return Buf;
      Buf.push_back(C);
    }
    return Buf;
  }

  /// Reads \p N bytes in chunks (fewer if the server closes first).
  std::string recvBytes(size_t N) {
    std::string Buf;
    char Chunk[65536];
    while (Buf.size() < N) {
      ssize_t Got =
          ::recv(Fd, Chunk, std::min(sizeof(Chunk), N - Buf.size()), 0);
      if (Got <= 0)
        break;
      Buf.append(Chunk, size_t(Got));
    }
    return Buf;
  }

  /// Ends the request stream and waits until the server has closed its
  /// end, that is, until the connection's reader has finished.
  void finish() {
    ::shutdown(Fd, SHUT_WR);
    char C;
    while (::recv(Fd, &C, 1, 0) > 0) {
    }
  }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  bool Connected = false;

private:
  int Fd = -1;
};

TEST(ServerSocketTest, MidStreamDisconnectLeavesSessionIntact) {
  std::string Path =
      "/tmp/seminal_servertest_" + std::to_string(::getpid()) + ".sock";
  ServerEngine Engine;
  obs::OpsCounter &Checks = Engine.registry().counter("seminal_checks_total");
  UnixSocketServer Socket(Engine, Path);
  std::string Error;
  ASSERT_TRUE(Socket.start(Error)) << Error;

  std::string CheckBase = "{\"method\":\"check\",\"id\":1,"
                          "\"session\":\"d\",\"source\":\"";
  CheckBase += jsonEscape(BaseSource);
  CheckBase += "\"}";

  // Client 1 submits a check and vanishes without reading the reply.
  {
    SocketClient C1(Path);
    ASSERT_TRUE(C1.Connected);
    ASSERT_TRUE(C1.send(CheckBase));
    C1.close();
  }
  // drain() only waits for work already posted, and client 1's connection
  // thread may not have read its line yet; wait until its check finished.
  for (int Tries = 0; Tries < 5000 && Checks.value() == 0; ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(Checks.value(), 1u) << "client 1's check never ran";
  Engine.drain();

  // Client 2 reconnects to the same session: the work client 1 paid for
  // is still warm, and the server is still serving.
  SocketClient C2(Path);
  ASSERT_TRUE(C2.Connected);
  std::string Edited = "{\"method\":\"check\",\"id\":2,\"session\":\"d\","
                       "\"source\":\"";
  Edited += jsonEscape(EditedSource);
  Edited += "\"}";
  ASSERT_TRUE(C2.send(Edited));
  json::Value Reply = parseReply(C2.recvLine());
  EXPECT_TRUE(Reply.getBool("ok", false));
  ASSERT_TRUE(Reply.member("warm"));
  EXPECT_GT(Reply.member("warm")->getInt("prefix_hits", 0), 0)
      << "the disconnected client's warm state must survive";
  C2.close();

  Socket.stop();
  EXPECT_EQ(Checks.value(), 2u);
}

TEST(ServerSocketTest, SecondDaemonOnSameSocketFailsCleanly) {
  std::string Path =
      "/tmp/seminal_sockclash_" + std::to_string(::getpid()) + ".sock";
  ServerEngine EngineA;
  UnixSocketServer A(EngineA, Path);
  std::string Error;
  ASSERT_TRUE(A.start(Error)) << Error;

  // A second daemon must refuse the live socket instead of stealing it.
  ServerEngine EngineB;
  UnixSocketServer B(EngineB, Path);
  std::string ErrorB;
  EXPECT_FALSE(B.start(ErrorB));
  EXPECT_NE(ErrorB.find("already in use"), std::string::npos) << ErrorB;
  EXPECT_NE(ErrorB.find(Path), std::string::npos)
      << "the error must name the contested path: " << ErrorB;

  // The refusal left daemon A fully operational.
  SocketClient C(Path);
  ASSERT_TRUE(C.Connected);
  ASSERT_TRUE(C.send("{\"method\":\"ping\",\"id\":1}"));
  EXPECT_TRUE(parseReply(C.recvLine()).getBool("pong", false));
  C.close();
  A.stop();

  // A *stale* file (owner died without cleanup) is safe to replace: the
  // probe connect fails, so the next daemon unlinks and binds.
  int Stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Stale, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  ASSERT_EQ(::bind(Stale, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ::close(Stale); // No unlink: the file lingers with nobody listening.
  ServerEngine EngineC;
  UnixSocketServer Recovered(EngineC, Path);
  std::string ErrorC;
  EXPECT_TRUE(Recovered.start(ErrorC)) << ErrorC;
  Recovered.stop();
  ::unlink(Path.c_str());
}

/// A check reply with its clock values zeroed, for comparing two runs
/// of the same check.
std::string withoutClocks(std::string Reply) {
  for (std::string Key :
       {"\"wall_seconds\":", "\"cpu_ns\":", "\"wall_ns\":"}) {
    size_t At = Reply.find(Key);
    if (At == std::string::npos)
      continue;
    At += Key.size();
    Reply.replace(At, Reply.find_first_of(",}", At) - At, "0");
  }
  return Reply;
}

TEST(ServerSocketTest, ThreeLinesInOneSendGetThreeReplies) {
  std::string Path =
      "/tmp/seminal_lines_" + std::to_string(::getpid()) + ".sock";
  ServerEngine Engine;
  UnixSocketServer Socket(Engine, Path);
  std::string Error;
  ASSERT_TRUE(Socket.start(Error)) << Error;

  SocketClient C(Path);
  ASSERT_TRUE(C.Connected);
  ASSERT_TRUE(C.sendRaw("{\"method\":\"ping\",\"id\":1}\n"
                        "{\"method\":\"ping\",\"id\":2}\r\n"
                        "{\"method\":\"stats\",\"id\":3}\n"));
  // Inline methods reply in order.
  json::Value First = parseReply(C.recvLine());
  json::Value Second = parseReply(C.recvLine());
  json::Value Third = parseReply(C.recvLine());
  EXPECT_EQ(First.getInt("id", -1), 1);
  EXPECT_TRUE(First.getBool("pong", false));
  EXPECT_EQ(Second.getInt("id", -1), 2);
  EXPECT_TRUE(Second.getBool("pong", false));
  EXPECT_EQ(Third.getInt("id", -1), 3);
  EXPECT_EQ(Third.getInt("pings", -1), 2);
  C.close();
  Socket.stop();
}

TEST(ServerSocketTest, ReplyLargerThanTheSocketBufferArrivesWhole) {
  // An echoed 4 MiB id makes a reply many times the socket's send
  // buffer: the writer must deliver all of it, newline last, and the
  // next reply must follow intact.
  std::string Path =
      "/tmp/seminal_bigreply_" + std::to_string(::getpid()) + ".sock";
  ServerEngine Engine;
  UnixSocketServer Socket(Engine, Path);
  std::string Error;
  ASSERT_TRUE(Socket.start(Error)) << Error;

  std::string Id(size_t(4) << 20, 'x');
  for (size_t I = 0; I < Id.size(); ++I)
    Id[I] = char('a' + I % 26);
  SocketClient C(Path);
  ASSERT_TRUE(C.Connected);
  ASSERT_TRUE(C.send("{\"method\":\"ping\",\"id\":\"" + Id + "\"}"));
  ASSERT_TRUE(C.send("{\"method\":\"ping\",\"id\":2}"));
  const std::string Want = "{\"id\":\"" + Id +
                           "\",\"ok\":true,\"pong\":true}\n"
                           "{\"id\":2,\"ok\":true,\"pong\":true}\n";
  std::string Got = C.recvBytes(Want.size());
  C.close();
  Socket.stop();
  EXPECT_EQ(Got.size(), Want.size());
  EXPECT_TRUE(Got == Want) << "the large reply arrived damaged";
}

TEST(ServerSocketTest, LineSplitAcrossSendsGetsOneReply) {
  std::string Path =
      "/tmp/seminal_split_" + std::to_string(::getpid()) + ".sock";
  ServerEngine Engine;
  UnixSocketServer Socket(Engine, Path);
  std::string Error;
  ASSERT_TRUE(Socket.start(Error)) << Error;

  std::string Line = checkLine(1, "split", BaseSource);
  SocketClient C(Path);
  ASSERT_TRUE(C.Connected);
  std::string Bytes = Line + "\n";
  for (size_t Off = 0; Off < Bytes.size(); Off += 3) {
    ASSERT_TRUE(C.sendRaw(Bytes.substr(Off, 3)));
    // Pause now and then so the reader sees the line in pieces.
    if (Off % 48 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string Reply = C.recvLine();
  C.close();
  Socket.stop();
  EXPECT_EQ(Engine.registry().counter("seminal_requests_total").value(), 1u);

  ServerEngine Fresh;
  EXPECT_EQ(withoutClocks(Reply), withoutClocks(Fresh.handle(Line)));
}

TEST(ServerSocketTest, OverlongLineIsRejectedBeforeItEnds) {
  std::string Path =
      "/tmp/seminal_overlong_" + std::to_string(::getpid()) + ".sock";
  ServerEngine Engine;
  UnixSocketServer Socket(Engine, Path);
  std::string Error;
  ASSERT_TRUE(Socket.start(Error)) << Error;

  SocketClient C(Path);
  ASSERT_TRUE(C.Connected);
  // One byte past the cap, and no newline: the reply must come now, so
  // the reader decided with at most the cap plus one read of the line in
  // its buffer instead of waiting for (and holding) the whole line.
  const std::string Block(64 * 1024, 'x');
  size_t Sent = 0;
  while (Sent <= MaxRequestLineBytes) {
    size_t N = std::min(Block.size(), MaxRequestLineBytes + 1 - Sent);
    ASSERT_TRUE(C.sendRaw(Block.substr(0, N)));
    Sent += N;
  }
  json::Value Err = parseReply(C.recvLine());
  EXPECT_FALSE(Err.getBool("ok", true));
  EXPECT_EQ(Err.getString("error"),
            "malformed request: line longer than " +
                std::to_string(MaxRequestLineBytes) + " bytes");

  // The rest of the line, twice the cap again, is dropped through its
  // newline; the connection then serves the next request.
  for (size_t More = 0; More < 2 * MaxRequestLineBytes; More += Block.size())
    ASSERT_TRUE(C.sendRaw(Block));
  ASSERT_TRUE(C.sendRaw("\n{\"method\":\"ping\",\"id\":7}\n"));
  json::Value Pong = parseReply(C.recvLine());
  EXPECT_EQ(Pong.getInt("id", -1), 7);
  EXPECT_TRUE(Pong.getBool("pong", false));
  C.close();
  Socket.stop();
  EXPECT_EQ(Engine.registry().counter("seminal_malformed_total").value(), 1u);
  EXPECT_EQ(Engine.registry().counter("seminal_requests_total").value(), 2u);
}

/// This process's virtual memory in KiB (VmSize in /proc/self/status).
int64_t vmSizeKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return std::stoll(Line.substr(7));
  return -1;
}

/// The stack a new std::thread gets, in KiB.
int64_t threadStackKb() {
  size_t Bytes = 0;
  std::thread([&Bytes] {
    pthread_attr_t A;
    if (pthread_getattr_np(pthread_self(), &A) == 0) {
      pthread_attr_getstacksize(&A, &Bytes);
      pthread_attr_destroy(&A);
    }
  }).join();
  return int64_t(Bytes / 1024);
}

TEST(ServerSocketTest, FinishedConnectionThreadsAreReaped) {
  // An exited thread keeps its stack mapped until it is joined, so a
  // daemon that joined connection threads only at stop() grew by one
  // stack per connection it ever served.
  std::string Path =
      "/tmp/seminal_reap_" + std::to_string(::getpid()) + ".sock";
  ServerEngine Engine;
  UnixSocketServer Socket(Engine, Path);
  std::string Error;
  ASSERT_TRUE(Socket.start(Error)) << Error;
  auto PingOnce = [&Path] {
    SocketClient C(Path);
    ASSERT_TRUE(C.Connected);
    ASSERT_TRUE(C.send("{\"method\":\"ping\",\"id\":1}"));
    EXPECT_TRUE(parseReply(C.recvLine()).getBool("pong", false));
    C.finish();
  };
  int64_t StackKb = threadStackKb();
  ASSERT_GT(StackKb, 0);
  PingOnce(); // one-time costs of the first connection
  int64_t Before = vmSizeKb();
  ASSERT_GT(Before, 0) << "no VmSize in /proc/self/status";
  for (int I = 0; I < 32; ++I)
    PingOnce();
  int64_t Grown = vmSizeKb() - Before;
  EXPECT_LT(Grown, 4 * StackKb)
      << "32 sequential connections grew VmSize by " << Grown
      << " KiB; one thread stack is " << StackKb << " KiB";
  Socket.stop();
  EXPECT_EQ(Engine.registry().counter("seminal_pings_total").value(), 33u);
}

//===----------------------------------------------------------------------===//
// Observability: metrics verb, per-shard stats, slow traces, HTTP scrape
//===----------------------------------------------------------------------===//

TEST(ServerObsTest, MetricsReconcileExactlyWithStats) {
  ServerOptions Opts;
  Opts.Threads = 2;
  ServerEngine Engine(Opts);
  Engine.handle(checkLine(1, "alpha", BaseSource));
  Engine.handle(checkLine(2, "alpha", EditedSource)); // warm
  Engine.handle(checkLine(6, "alpha", EditedSource)); // replayed
  Engine.handle(checkLine(3, "beta", BaseSource));
  Engine.handle("{\"method\":\"ping\",\"id\":4}");
  Engine.handle("{\"method\":\"reset\",\"id\":5,\"session\":\"beta\"}");
  Engine.handle("{\"method\":\"frobnicate\",\"id\":7}"); // malformed
  Engine.drain();

  // The stats verb renders each member from its registry instrument, so
  // on an idle engine every member equals the instrument /metrics serves.
  json::Value Stats =
      parseReply(Engine.handle("{\"method\":\"stats\",\"id\":8}"));
  obs::OpsRegistry &R = Engine.registry();
  auto Counter = [&R](const char *Name, const obs::OpsLabels &L = {}) {
    return int64_t(R.counter(Name, "", L).value());
  };
  auto Gauge = [&R](const char *Name, const obs::OpsLabels &L = {}) {
    return R.gauge(Name, "", L).value();
  };
  const std::pair<const char *, const char *> Counters[] = {
      {"requests", "seminal_requests_total"},
      {"checks", "seminal_checks_total"},
      {"resets", "seminal_resets_total"},
      {"pings", "seminal_pings_total"},
      {"malformed", "seminal_malformed_total"},
      {"sessions_created", "seminal_sessions_created_total"},
      {"evictions", "seminal_evictions_total"},
      {"replays", "seminal_replays_total"},
      {"oracle_calls", "seminal_oracle_calls_total"},
      {"inference_runs", "seminal_inference_runs_total"},
      {"cache_hits", "seminal_cost_verdict_cache_hits_total"},
  };
  for (const auto &[Member, Family] : Counters)
    EXPECT_EQ(Stats.getInt(Member, -1), Counter(Family)) << Member;
  EXPECT_EQ(Stats.getInt("sessions", -1), Gauge("seminal_sessions"));
  EXPECT_EQ(Stats.getInt("shard_count", -1), int64_t(Engine.shards()));
  EXPECT_FALSE(Stats.member("cache_misses"));

  const json::Value *Warm = Stats.member("warm");
  ASSERT_TRUE(Warm && Warm->isObject());
  for (const char *Kind : {"prefix_hits", "seed_adoptions"})
    EXPECT_EQ(Warm->getInt(Kind, -1),
              Counter("seminal_warm_hits_total", {{"kind", Kind}}))
        << Kind;
  EXPECT_GT(Warm->getInt("prefix_hits", 0), 0)
      << "the alpha resubmit must have run warm";

  const json::Value *Cost = Stats.member("cost");
  ASSERT_TRUE(Cost && Cost->isObject());
  EXPECT_EQ(Cost->objectValue().size(), 3u);
  EXPECT_EQ(Cost->getInt("cpu_us", -1), Counter("seminal_cost_cpu_us_total"));
  EXPECT_EQ(Cost->getInt("wall_us", -1), Counter("seminal_cost_wall_us_total"));
  EXPECT_EQ(Cost->getInt("arena_bytes", -1), Gauge("seminal_cost_arena_bytes"));

  const json::Value *Shards = Stats.member("shards");
  ASSERT_TRUE(Shards && Shards->isArray());
  ASSERT_EQ(Shards->arrayValue().size(), size_t(Engine.shards()));
  int64_t ShardRequests = 0;
  for (size_t I = 0; I < Shards->arrayValue().size(); ++I) {
    const json::Value &Sh = Shards->arrayValue()[I];
    obs::OpsLabels L{{"shard", std::to_string(I)}};
    EXPECT_EQ(Sh.getInt("requests", -1),
              Counter("seminal_shard_requests_total", L));
    EXPECT_EQ(Sh.getInt("queue_depth", -1),
              Gauge("seminal_shard_queue_depth", L));
    EXPECT_EQ(Gauge("seminal_shard_queue_depth", L), 0)
        << "drained engine must have empty queues";
    const json::Value *Busy = Sh.member("busy_seconds");
    ASSERT_TRUE(Busy && Busy->isNumber());
    double BusySeconds =
        double(Counter("seminal_shard_busy_us_total", L)) / 1e6;
    EXPECT_NEAR(Busy->numberValue(), BusySeconds, 1e-5 * BusySeconds);
    ShardRequests += Sh.getInt("requests", 0);
  }

  // What was driven, counted once.
  EXPECT_EQ(Stats.getInt("requests", -1), 8);
  EXPECT_EQ(Stats.getInt("checks", -1), 4);
  EXPECT_EQ(Stats.getInt("replays", -1), 1);
  EXPECT_EQ(Stats.getInt("resets", -1), 1);
  EXPECT_EQ(Stats.getInt("pings", -1), 1);
  EXPECT_EQ(Stats.getInt("malformed", -1), 1);
  EXPECT_EQ(Stats.getInt("sessions_created", -1), 2);
  // The per-shard breakdown covers every routed request.
  EXPECT_EQ(ShardRequests,
            Stats.getInt("checks", -1) + Stats.getInt("resets", -1));

  // Every check records into exactly one latency series.
  LogHistogram &Cold =
      R.histogram("seminal_request_latency_us", "", {{"state", "cold"}});
  LogHistogram &WarmH =
      R.histogram("seminal_request_latency_us", "", {{"state", "warm"}});
  EXPECT_EQ(Cold.count(), 2u);
  EXPECT_EQ(WarmH.count(), 2u) << "the warm edit and the replay";
  EXPECT_EQ(R.histogram("seminal_oracle_calls_per_request").count(), 4u);
}

TEST(ServerObsTest, MetricsVerbServesJsonAndPrometheus) {
  ServerEngine Engine;
  Engine.handle(checkLine(1, "m", BaseSource));

  json::Value Reply =
      parseReply(Engine.handle("{\"method\":\"metrics\",\"id\":2}"));
  EXPECT_TRUE(Reply.getBool("ok", false));
  const json::Value *Metrics = Reply.member("metrics");
  ASSERT_TRUE(Metrics && Metrics->isObject());
  const json::Value *Checks = Metrics->member("seminal_checks_total");
  ASSERT_TRUE(Checks);
  const json::Value *Vals = Checks->member("values");
  ASSERT_TRUE(Vals && Vals->isArray());
  ASSERT_EQ(Vals->arrayValue().size(), 1u);
  EXPECT_EQ(Vals->arrayValue()[0].getInt("value", -1), 1);

  json::Value Prom = parseReply(Engine.handle(
      "{\"method\":\"metrics\",\"id\":3,\"format\":\"prometheus\"}"));
  EXPECT_EQ(Prom.getString("format"), "prometheus");
  std::string Text = Prom.getString("exposition");
  EXPECT_NE(Text.find("# TYPE seminal_checks_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("seminal_checks_total 1"), std::string::npos);
  EXPECT_NE(
      Text.find("# TYPE seminal_request_latency_us summary"),
      std::string::npos);

  // An unknown format is malformed, not silently defaulted.
  json::Value Bad = parseReply(Engine.handle(
      "{\"method\":\"metrics\",\"id\":4,\"format\":\"xml\"}"));
  EXPECT_FALSE(Bad.getBool("ok", true));
}

TEST(ServerObsTest, StatsVerbCarriesShardArray) {
  ServerOptions Opts;
  Opts.Threads = 3;
  ServerEngine Engine(Opts);
  Engine.handle(checkLine(1, "s", BaseSource));
  json::Value Stats =
      parseReply(Engine.handle("{\"method\":\"stats\",\"id\":2}"));
  EXPECT_EQ(Stats.getInt("shard_count", -1), 3);
  const json::Value *Shards = Stats.member("shards");
  ASSERT_TRUE(Shards && Shards->isArray());
  ASSERT_EQ(Shards->arrayValue().size(), 3u);
  uint64_t Total = 0;
  for (size_t I = 0; I < 3; ++I) {
    const json::Value &Sh = Shards->arrayValue()[I];
    EXPECT_EQ(Sh.getInt("shard", -1), int64_t(I));
    Total += uint64_t(Sh.getInt("requests", 0));
    EXPECT_TRUE(Sh.member("queue_depth"));
    EXPECT_TRUE(Sh.member("busy_seconds"));
  }
  EXPECT_EQ(Total, 1u);
}

TEST(ServerObsTest, SlowRequestsExportBoundedTraces) {
  std::string Dir =
      "/tmp/seminal_slowtrace_srv_" + std::to_string(::getpid());
  std::string Cmd = "rm -rf '" + Dir + "'";
  (void)std::system(Cmd.c_str());

  obs::SlowTraceRing Ring(Dir, 2);
  ServerOptions Opts;
  Opts.SlowTraces = &Ring;
  Opts.TraceSlowMs = 0.0; // Tail-sample everything: every check is "slow".
  ServerEngine Engine(Opts);

  json::Value Reply = parseReply(Engine.handle(checkLine(7, "t", BaseSource)));
  std::string Path = Reply.getString("slow_trace");
  ASSERT_FALSE(Path.empty()) << "threshold 0 must capture every request";
  EXPECT_NE(Path.find("-7.trace.json"), std::string::npos)
      << "the file is named after the request id: " << Path;
  EXPECT_EQ(Engine.registry().counter("seminal_slow_traces_total").value(),
            1u);

  // The exported file is a loadable Chrome trace with real spans.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();
  json::ParseResult P = json::parse(Buf.str());
  ASSERT_TRUE(P.ok());
  const json::Value *Events = P.Doc->member("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  EXPECT_FALSE(Events->arrayValue().empty());

  // The ring caps disk: three more captures, never more than two files.
  // Each source differs from the one before it, because a resubmit of
  // the same bytes is replayed without a search and records no trace.
  Engine.handle(checkLine(8, "t", EditedSource));
  Engine.handle(checkLine(9, "t", BaseSource));
  Engine.handle(checkLine(10, "t", EditedSource));
  EXPECT_EQ(Ring.captured(), 4u);
  EXPECT_EQ(Ring.size(), 2u);

  (void)std::system(Cmd.c_str());
}

TEST(ServerObsTest, StructuredLogsFollowTheRequestStream) {
  std::ostringstream LogOut;
  obs::Logger Log(LogOut, obs::LogLevel::Info);
  ServerOptions Opts;
  Opts.Log = &Log;
  ServerEngine Engine(Opts);
  Engine.handle(checkLine(1, "alice", BaseSource));
  Engine.handle("{\"method\":\"ping\",\"id\":2}"); // debug: suppressed at info
  Engine.handle("{not json");

  std::string Text = LogOut.str();
  EXPECT_NE(Text.find("event=check"), std::string::npos) << Text;
  EXPECT_NE(Text.find("session=alice"), std::string::npos) << Text;
  EXPECT_NE(Text.find("latency_ms="), std::string::npos) << Text;
  EXPECT_NE(Text.find("event=malformed"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("event=ping"), std::string::npos)
      << "debug events must not leak through an info logger: " << Text;
}

/// Minimal HTTP/1.0 GET against 127.0.0.1:port; returns the full
/// response (status line + headers + body).
std::string httpGet(uint16_t Port, const std::string &Target,
                    const char *Verb = "GET") {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return "";
  }
  std::string Req = std::string(Verb) + " " + Target + " HTTP/1.0\r\n\r\n";
  (void)!::send(Fd, Req.data(), Req.size(), 0);
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Out.append(Buf, size_t(N));
  ::close(Fd);
  return Out;
}

TEST(ServerObsTest, HttpEndpointServesMetricsAndHealth) {
  ServerEngine Engine;
  Engine.handle(checkLine(1, "h", BaseSource));

  MetricsHttpServer Http(Engine, 0); // 0: ephemeral port
  std::string Error;
  ASSERT_TRUE(Http.start(Error)) << Error;
  ASSERT_NE(Http.port(), 0u);

  std::string Metrics = httpGet(Http.port(), "/metrics");
  EXPECT_NE(Metrics.find("200 OK"), std::string::npos) << Metrics;
  EXPECT_NE(Metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Metrics.find("seminal_checks_total 1"), std::string::npos);

  std::string MetricsJson = httpGet(Http.port(), "/metrics.json");
  EXPECT_NE(MetricsJson.find("200 OK"), std::string::npos);
  size_t BodyAt = MetricsJson.find("\r\n\r\n");
  ASSERT_NE(BodyAt, std::string::npos);
  json::ParseResult P = json::parse(MetricsJson.substr(BodyAt + 4));
  ASSERT_TRUE(P.ok());
  EXPECT_TRUE(P.Doc->member("seminal_checks_total"));

  std::string Health = httpGet(Http.port(), "/healthz");
  EXPECT_NE(Health.find("200 OK"), std::string::npos);
  EXPECT_NE(Health.find("{\"ok\":true}"), std::string::npos);

  EXPECT_NE(httpGet(Http.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(httpGet(Http.port(), "/metrics", "POST").find("405"),
            std::string::npos);

  // The scrape and the stats verb agree: same registry, same totals.
  json::Value Stats =
      parseReply(Engine.handle("{\"method\":\"stats\",\"id\":2}"));
  std::string Scrape = httpGet(Http.port(), "/metrics");
  std::string Needle = "seminal_checks_total " +
                       std::to_string(Stats.getInt("checks", -1));
  EXPECT_NE(Scrape.find(Needle), std::string::npos) << Scrape;
  Http.stop();
}

//===----------------------------------------------------------------------===//
// Cost ledger: replies sum to the engine's counters
//===----------------------------------------------------------------------===//

/// The members of a check reply's "cost" object.
const char *const CostMembers[] = {"cpu_ns",         "wall_ns",
                                   "oracle_calls",   "inference_runs",
                                   "arena_bytes",    "verdict_cache_hits"};

/// One member of a check reply's "cost" object (asserting it is there).
uint64_t costField(const json::Value &Reply, const char *Member) {
  const json::Value *Cost = Reply.member("cost");
  EXPECT_TRUE(Cost && Cost->isObject());
  int64_t V = Cost && Cost->isObject() ? Cost->getInt(Member, -1) : -1;
  EXPECT_GE(V, 0) << Member;
  return uint64_t(V);
}

TEST(ServerLedgerTest, SessionStampsTheLedgerFromTheRunItself) {
  // One measurement site: the reply's cost object is rendered from the
  // outcome's own counters and clocks, not from a parallel tally.
  Session S("t", SessionConfig());
  CheckOutcome Out = S.check(BaseSource, CheckOptions());
  EXPECT_GT(Out.CpuNs, 0u) << "a real check must consume CPU";
  EXPECT_GT(Out.wallNs(), 0u);
  json::Value Reply = parseReply(renderCheckResponse("1", Out));
  EXPECT_EQ(costField(Reply, "cpu_ns"), Out.CpuNs);
  EXPECT_EQ(costField(Reply, "wall_ns"), Out.wallNs());
  EXPECT_EQ(costField(Reply, "oracle_calls"), Out.OracleCalls);
  EXPECT_EQ(costField(Reply, "inference_runs"), Out.InferenceRuns);
  EXPECT_EQ(costField(Reply, "arena_bytes"), Out.Accel.ArenaBytes);
  EXPECT_EQ(costField(Reply, "verdict_cache_hits"), Out.Accel.CacheHits);
  EXPECT_GT(Out.Accel.ArenaBytes, 0u) << "a session check retains its seed";
}

TEST(ServerLedgerTest, ResponsesStatsAndScrapeReconcile) {
  ServerOptions Opts;
  Opts.Threads = 2;
  ServerEngine Engine(Opts);
  constexpr uint64_t Searched = 6;
  constexpr uint64_t Checks = Searched + 1;
  struct {
    uint64_t CpuNs = 0, WallNs = 0, OracleCalls = 0, InferenceRuns = 0,
             VerdictCacheHits = 0;
  } Sum;
  auto Add = [&Sum](const json::Value &Reply) {
    Sum.CpuNs += costField(Reply, "cpu_ns");
    Sum.WallNs += costField(Reply, "wall_ns");
    Sum.OracleCalls += costField(Reply, "oracle_calls");
    Sum.InferenceRuns += costField(Reply, "inference_runs");
    Sum.VerdictCacheHits += costField(Reply, "verdict_cache_hits");
  };
  for (int I = 1; I <= int(Searched); ++I) {
    const char *Src = (I % 2) ? BaseSource : EditedSource;
    const char *Sess = (I <= 3) ? "ledger_a" : "ledger_b";
    json::Value Reply = parseReply(Engine.handle(checkLine(I, Sess, Src)));
    EXPECT_GT(costField(Reply, "cpu_ns"), 0u);
    EXPECT_GT(costField(Reply, "wall_ns"), 0u);
    EXPECT_GT(costField(Reply, "oracle_calls"), 0u);
    Add(Reply);
  }
  // A replayed check bills its own clocks and no oracle work.
  json::Value Replayed = parseReply(
      Engine.handle(checkLine(int(Checks), "ledger_b", EditedSource)));
  ASSERT_TRUE(Replayed.member("warm"));
  EXPECT_TRUE(Replayed.member("warm")->getBool("replayed", false));
  EXPECT_GT(costField(Replayed, "wall_ns"), 0u);
  EXPECT_EQ(costField(Replayed, "oracle_calls"), 0u);
  EXPECT_EQ(costField(Replayed, "inference_runs"), 0u);
  Add(Replayed);
  Engine.drain();

  // The registry sums the replies' ledgers. Discrete flows carry no
  // rounding: they reconcile exactly.
  obs::OpsRegistry &R = Engine.registry();
  EXPECT_EQ(R.counter("seminal_oracle_calls_total").value(), Sum.OracleCalls);
  EXPECT_EQ(R.counter("seminal_inference_runs_total").value(),
            Sum.InferenceRuns);
  EXPECT_EQ(R.counter("seminal_cost_verdict_cache_hits_total").value(),
            Sum.VerdictCacheHits);
  // Time counters count microseconds, floored per request: they sit
  // within `Checks` microseconds of the exact nanosecond sums.
  uint64_t CpuUs = R.counter("seminal_cost_cpu_us_total").value();
  EXPECT_LE(CpuUs, Sum.CpuNs / 1000);
  EXPECT_GE(CpuUs + Checks, Sum.CpuNs / 1000);
  uint64_t WallUs = R.counter("seminal_cost_wall_us_total").value();
  EXPECT_LE(WallUs, Sum.WallNs / 1000);
  EXPECT_GE(WallUs + Checks, Sum.WallNs / 1000);

  // The stats verb serves the same instruments.
  json::Value Stats =
      parseReply(Engine.handle("{\"method\":\"stats\",\"id\":99}"));
  EXPECT_EQ(uint64_t(Stats.getInt("oracle_calls", -1)), Sum.OracleCalls);
  EXPECT_EQ(uint64_t(Stats.getInt("inference_runs", -1)), Sum.InferenceRuns);
  EXPECT_EQ(uint64_t(Stats.getInt("cache_hits", -1)), Sum.VerdictCacheHits);
  const json::Value *SC = Stats.member("cost");
  ASSERT_TRUE(SC && SC->isObject());
  EXPECT_EQ(uint64_t(SC->getInt("cpu_us", -1)), CpuUs);
  EXPECT_EQ(uint64_t(SC->getInt("wall_us", -1)), WallUs);

  // Every check lands one sample in the per-request CPU histogram, and
  // the per-shard CPU split covers the whole total.
  EXPECT_EQ(R.histogram("seminal_request_cpu_us").count(), Checks);
  uint64_t ShardCpuUs = 0;
  for (unsigned I = 0; I < Engine.shards(); ++I)
    ShardCpuUs += R.counter("seminal_shard_cpu_us_total", "",
                            {{"shard", std::to_string(I)}})
                      .value();
  EXPECT_EQ(ShardCpuUs, CpuUs);

  // Sessions are pinned to one shard worker, so each request's CPU
  // delta is real thread time: the process clock upper-bounds the sum.
  EXPECT_LE(Sum.CpuNs, prof::processCpuNs());
}

TEST(ServerLedgerTest, SyntaxErrorsCarryTheirCostAndTheArenaLevel) {
  Session S("t", SessionConfig());
  CheckOutcome Good = S.check(BaseSource, CheckOptions());
  ASSERT_GT(Good.ArenaBytes, 0u);
  std::string Bad = std::string(BaseSource) + "let broken = ";
  CheckOutcome Syntax = S.check(Bad, CheckOptions());
  ASSERT_FALSE(Syntax.SyntaxError.empty());
  EXPECT_GT(Syntax.CpuNs, 0u) << "parsing three declarations costs CPU";
  EXPECT_GT(Syntax.wallNs(), 0u);
  EXPECT_EQ(Syntax.OracleCalls, 0u);
  EXPECT_EQ(Syntax.ArenaBytes, Good.ArenaBytes)
      << "a syntax error leaves the retained state as it was";
  EXPECT_EQ(Syntax.Accel.ArenaBytes, Good.ArenaBytes);
}

TEST(ServerLedgerTest, ArenaGaugeSurvivesSyntaxErrors) {
  ServerEngine Engine;
  obs::OpsGauge &Gauge = Engine.registry().gauge("seminal_arena_bytes");
  json::Value Good = parseReply(Engine.handle(checkLine(1, "g", BaseSource)));
  int64_t Bytes = Good.member("cost")->getInt("arena_bytes", -1);
  ASSERT_GT(Bytes, 0);
  EXPECT_EQ(Gauge.value(), Bytes);

  // The syntax-error reply carries its own bill, and the session's share
  // of the gauge stays what it still retains.
  json::Value Bad = parseReply(Engine.handle(
      checkLine(2, "g", std::string(BaseSource) + "let broken = ")));
  ASSERT_FALSE(Bad.getString("syntax_error").empty());
  EXPECT_GT(costField(Bad, "wall_ns"), 0u);
  EXPECT_EQ(costField(Bad, "arena_bytes"), uint64_t(Bytes));
  EXPECT_EQ(Gauge.value(), Bytes);
  // Both bills reached the engine's time counters, floored per check.
  obs::OpsRegistry &R = Engine.registry();
  EXPECT_EQ(R.counter("seminal_cost_cpu_us_total").value(),
            costField(Good, "cpu_ns") / 1000 + costField(Bad, "cpu_ns") / 1000);
  EXPECT_EQ(R.counter("seminal_cost_wall_us_total").value(),
            costField(Good, "wall_ns") / 1000 +
                costField(Bad, "wall_ns") / 1000);
}

TEST(ServerLedgerTest, ArenaGaugeFollowsResets) {
  ServerEngine Engine;
  obs::OpsGauge &Gauge = Engine.registry().gauge("seminal_arena_bytes");
  json::Value G = parseReply(Engine.handle(checkLine(1, "g", BaseSource)));
  json::Value H = parseReply(Engine.handle(checkLine(2, "h", EditedSource)));
  int64_t GBytes = G.member("cost")->getInt("arena_bytes", -1);
  int64_t HBytes = H.member("cost")->getInt("arena_bytes", -1);
  ASSERT_GT(GBytes, 0);
  ASSERT_GT(HBytes, 0);
  EXPECT_EQ(Gauge.value(), GBytes + HBytes);

  // A reset clears one session's state, and its share leaves the gauge.
  Engine.handle("{\"method\":\"reset\",\"id\":3,\"session\":\"g\"}");
  EXPECT_EQ(Gauge.value(), HBytes);
}

TEST(ServerLedgerTest, RunReportEmbedsTheSameLedger) {
  // report:true responses carry a RunReport whose "cost" object is the
  // same ledger the response itself reports -- one source of truth.
  ServerEngine Engine;
  std::string Line = "{\"method\":\"check\",\"id\":1,\"session\":\"r\","
                     "\"report\":true,\"source\":\"";
  Line += jsonEscape(BaseSource);
  Line += "\"}";
  json::Value Reply = parseReply(Engine.handle(Line));
  const json::Value *Report = Reply.member("report");
  ASSERT_TRUE(Report && Report->isObject());
  const json::Value *Effort = Report->member("effort");
  ASSERT_TRUE(Effort && Effort->isObject());
  const json::Value *RC = Effort->member("cost");
  ASSERT_TRUE(RC && RC->isObject()) << "schema v2 makes the cost mandatory";
  EXPECT_EQ(RC->objectValue().size(), std::size(CostMembers));
  for (const char *Member : CostMembers)
    EXPECT_EQ(uint64_t(RC->getInt(Member, -1)), costField(Reply, Member))
        << Member;

  // The per-layer call ledger is kept on every search, traced or not,
  // and sums to the same oracle calls.
  const json::Value *Layers = Effort->member("layers");
  ASSERT_TRUE(Layers && Layers->isObject());
  ASSERT_FALSE(Layers->objectValue().empty());
  uint64_t Calls = 0;
  for (const auto &KV : Layers->objectValue())
    Calls += uint64_t(KV.second.getInt("calls", 0));
  EXPECT_EQ(Calls, costField(Reply, "oracle_calls"));
}

TEST(ServerLedgerTest, HostileRequestIdsAreSanitizedInTheExemplar) {
  ServerEngine Engine;
  std::string Line = "{\"method\":\"check\",\"id\":\"../../etc/passwd\","
                     "\"session\":\"evil session\",\"source\":\"";
  Line += jsonEscape(BaseSource);
  Line += "\"}";
  parseReply(Engine.handle(Line));
  Engine.drain();

  // The first check is by definition the slowest so far: the exemplar
  // must be published, with both labels squeezed through the same
  // sanitizer the slow-trace filenames use.
  std::string Text = Engine.metricsPrometheus();
  size_t At = Text.find("seminal_slowest_request_info{");
  ASSERT_NE(At, std::string::npos) << Text;
  std::string InfoLine = Text.substr(At, Text.find('\n', At) - At);
  std::string WantId = obs::sanitizeRequestId("\"../../etc/passwd\"");
  EXPECT_EQ(WantId.find('/'), std::string::npos);
  EXPECT_NE(InfoLine.find("id=\"" + WantId + "\""), std::string::npos)
      << InfoLine;
  EXPECT_NE(InfoLine.find("session=\"evil_session\""), std::string::npos)
      << InfoLine;
  EXPECT_EQ(InfoLine.find('/'), std::string::npos)
      << "no hostile byte may reach the exposition: " << InfoLine;
  EXPECT_GT(
      Engine.registry().gauge("seminal_slowest_request_latency_us").value(),
      0);
}

//===----------------------------------------------------------------------===//
// SLO burn gauges and the profile verb
//===----------------------------------------------------------------------===//

TEST(ServerObsTest, TickSloPublishesBurnGauges) {
  ServerOptions Opts;
  Opts.Slo.TargetUs = 1; // 1us: every real check misses the target
  Opts.Slo.ObjectivePct = 50.0;
  ServerEngine Engine(Opts);
  obs::SloTracker::Burn Seed = Engine.tickSlo(); // seeds the ring
  EXPECT_EQ(Seed.Fast.Total, 0u);
  // The SLO watches *warm* latency (the editor-loop experience), so a
  // cold check alone must not move it: resubmit to produce one warm hit.
  Engine.handle(checkLine(1, "slo", BaseSource));
  Engine.handle(checkLine(2, "slo", EditedSource));
  Engine.drain();
  obs::SloTracker::Burn B = Engine.tickSlo();
  EXPECT_EQ(B.Fast.Total, 1u) << "only the warm resubmit counts";
  EXPECT_EQ(B.Fast.Bad, 1u) << "a millisecond-scale check misses a 1us SLO";
  EXPECT_NEAR(B.Fast.Burn, 2.0, 1e-12) << "100% bad on a 50% budget";

  std::string Text = Engine.metricsPrometheus();
  EXPECT_NE(Text.find("seminal_slo_burn_rate_milli{window=\"fast\"} 2000"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("seminal_slo_burn_rate_milli{window=\"slow\"} 2000"),
            std::string::npos)
      << Text;
}

TEST(ServerObsTest, ProfileVerbReturnsValidSnapshots) {
  ServerEngine Engine;
  Engine.handle(checkLine(1, "prof", BaseSource));

  // JSON format: the snapshot embeds as a parseable object.
  json::Value Reply = parseReply(Engine.handle(
      "{\"method\":\"profile\",\"id\":2,\"seconds\":1,\"format\":\"json\"}"));
  EXPECT_TRUE(Reply.getBool("ok", false));
  EXPECT_EQ(Reply.getInt("seconds", -1), 1);
  ASSERT_TRUE(Reply.member("profiler_running"));
  const json::Value *Profile = Reply.member("profile");
  ASSERT_TRUE(Profile && Profile->isObject());
  EXPECT_GE(Profile->getInt("samples", -1), 0);
  ASSERT_TRUE(Profile->member("stacks") &&
              Profile->member("stacks")->isArray());
  ASSERT_TRUE(Profile->member("cpu_self") &&
              Profile->member("cpu_self")->isArray());

  // Default format: collapsed stacks as an escaped string member.
  json::Value Collapsed = parseReply(
      Engine.handle("{\"method\":\"profile\",\"id\":3,\"seconds\":1}"));
  EXPECT_TRUE(Collapsed.getBool("ok", false));
  EXPECT_TRUE(Collapsed.member("collapsed"));
}

TEST(ServerObsTest, HttpDebugProfileServesBothFormats) {
  ServerEngine Engine;
  MetricsHttpServer Http(Engine, 0);
  std::string Error;
  ASSERT_TRUE(Http.start(Error)) << Error;

  std::string Json =
      httpGet(Http.port(), "/debug/profile?seconds=1&format=json");
  EXPECT_NE(Json.find("200 OK"), std::string::npos) << Json;
  EXPECT_NE(Json.find("application/json"), std::string::npos);
  size_t BodyAt = Json.find("\r\n\r\n");
  ASSERT_NE(BodyAt, std::string::npos);
  json::ParseResult P = json::parse(Json.substr(BodyAt + 4));
  ASSERT_TRUE(P.ok()) << Json.substr(BodyAt + 4);
  EXPECT_TRUE(P.Doc->member("samples"));
  EXPECT_TRUE(P.Doc->member("stacks"));

  // Bad parameters fall back to defaults instead of erroring, and the
  // collapsed default comes back as plain text.
  std::string Collapsed =
      httpGet(Http.port(), "/debug/profile?seconds=abc");
  EXPECT_NE(Collapsed.find("200 OK"), std::string::npos) << Collapsed;
  EXPECT_NE(Collapsed.find("text/plain"), std::string::npos);
  Http.stop();
}

TEST(ServerObsTest, SuggestionsIdenticalWithProfilerOnUnderConcurrency) {
  // The acceptance bar for "always-on profiling": eight shard workers,
  // sampler running hot, and every answer still byte-identical to a
  // cold unprofiled one-shot run.
  std::string ConvBase, ConvEdited;
  std::vector<std::string> ExpectBase = oneShotMessages(BaseSource, &ConvBase);
  std::vector<std::string> ExpectEdited =
      oneShotMessages(EditedSource, &ConvEdited);

  prof::Profiler::Options PO;
  PO.SampleHz = 1000;
  prof::profiler().start(PO);
  {
    ServerOptions Opts;
    Opts.Threads = 8;
    ServerEngine Engine(Opts);
    std::vector<std::thread> Clients;
    std::vector<std::string> BaseReplies(8), EditedReplies(8);
    for (int T = 0; T < 8; ++T)
      Clients.emplace_back([&Engine, &BaseReplies, &EditedReplies, T] {
        std::string Sess = "ident_" + std::to_string(T);
        BaseReplies[T] =
            Engine.handle(checkLine(T * 2, Sess.c_str(), BaseSource));
        EditedReplies[T] =
            Engine.handle(checkLine(T * 2 + 1, Sess.c_str(), EditedSource));
      });
    for (std::thread &C : Clients)
      C.join();
    Engine.drain();
    for (int T = 0; T < 8; ++T) {
      json::Value Base = parseReply(BaseReplies[T]);
      EXPECT_EQ(Base.getString("conventional"), ConvBase);
      const json::Value *S = Base.member("suggestions");
      ASSERT_TRUE(S && S->isArray());
      ASSERT_EQ(S->arrayValue().size(), ExpectBase.size());
      for (size_t I = 0; I < ExpectBase.size(); ++I)
        EXPECT_EQ(S->arrayValue()[I].getString("message"), ExpectBase[I]);

      json::Value Edited = parseReply(EditedReplies[T]);
      EXPECT_EQ(Edited.getString("conventional"), ConvEdited);
      const json::Value *E = Edited.member("suggestions");
      ASSERT_TRUE(E && E->isArray());
      ASSERT_EQ(E->arrayValue().size(), ExpectEdited.size());
      for (size_t I = 0; I < ExpectEdited.size(); ++I)
        EXPECT_EQ(E->arrayValue()[I].getString("message"), ExpectEdited[I]);
    }
  }
  prof::profiler().stop();
}

} // namespace
