//===- LogicTest.cpp - Tests of the benchmark's own logic ------------------==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//

#include "Logic.h"

#include "server/Protocol.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace perfbench;

namespace {

seminal::CorpusFile file(int Programmer, int Assignment, unsigned ClassSize,
                         std::string Source, size_t Errors = 1) {
  seminal::CorpusFile F;
  F.Programmer = Programmer;
  F.Assignment = Assignment;
  F.ClassSize = ClassSize;
  F.Source = std::move(Source);
  F.Truths.resize(Errors);
  return F;
}

} // namespace

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(resolves(999, 990));
  EXPECT_TRUE(resolves(1000, 990));
  EXPECT_FALSE(resolves(9999, 999));
  EXPECT_TRUE(resolves(10000, 999));
  EXPECT_TRUE(resolves(20, 500));
  EXPECT_FALSE(resolves(19, 500));
}

TEST(PercentileRule, HighestResolvedPercentile) {
  EXPECT_EQ(highestResolvedPerMille(19), 0u);
  EXPECT_EQ(highestResolvedPerMille(20), 500u);
  EXPECT_EQ(highestResolvedPerMille(100), 900u);
  EXPECT_EQ(highestResolvedPerMille(200), 950u);
  EXPECT_EQ(highestResolvedPerMille(1000), 990u);
  EXPECT_EQ(highestResolvedPerMille(12000), 999u);
}

TEST(PercentileRule, NearestRankLeavesTenBeyondP99) {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 990), 990.0); // 10 samples lie beyond it
  EXPECT_EQ(percentile(V, 500), 500.0);
  EXPECT_EQ(percentile({7.0}, 990), 7.0);
  EXPECT_EQ(percentile({}, 500), 0.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Classification, ResubmissionsAreUnchangedAndSessionsAreFresh) {
  seminal::Corpus C;
  C.Analyzed.push_back(file(1, 1, 3, "let a = 1 + true"));
  C.Analyzed.push_back(file(1, 1, 1, "let a = 2 + true", 2));
  C.Analyzed.push_back(file(1, 2, 2, "let a = 2 + true"));
  Plan P = buildPlan(C);
  ASSERT_EQ(P.sessions(), 2u);
  ASSERT_EQ(P.Checks.size(), 6u);
  std::vector<bool> Unchanged;
  for (const Check &Ch : P.Checks)
    Unchanged.push_back(Ch.Unchanged);
  // A session's first check is changed even when another session sent
  // the same bytes: the class is relative to the session.
  EXPECT_EQ(Unchanged,
            (std::vector<bool>{false, true, true, false, false, true}));
  EXPECT_EQ(P.SessionStart, (std::vector<size_t>{0, 4, 6}));
  EXPECT_EQ(P.Checks[4].Session, 1u);

  Properties Props = describe(C, P);
  EXPECT_EQ(Props.ChecksPerPass, 6u);
  EXPECT_EQ(Props.SessionsPerPass, 2u);
  EXPECT_DOUBLE_EQ(Props.UnchangedShare, 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(Props.MultiErrorShare, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Props.MeanDecls, 1.0);
}

TEST(Classification, IdenticalNextFileIsUnchanged) {
  seminal::Corpus C;
  C.Analyzed.push_back(file(3, 1, 1, "let a = 1 + true"));
  C.Analyzed.push_back(file(3, 1, 1, "let a = 1 + true"));
  Plan P = buildPlan(C);
  ASSERT_EQ(P.Checks.size(), 2u);
  EXPECT_FALSE(P.Checks[0].Unchanged);
  EXPECT_TRUE(P.Checks[1].Unchanged) << "classes follow the bytes sent";
}

TEST(RequestLines, PassStampKeepsTheLineAValidCheck) {
  RequestLine L = checkRequest(17, 4, "let x = \"a\"\n  + 1");
  stampPass(L.Text, L.PassOffset, 12);
  ASSERT_EQ(L.Text.back(), '\n');
  seminal::server::Request R =
      seminal::server::parseRequest(L.Text.substr(0, L.Text.size() - 1));
  ASSERT_EQ(R.TheMethod, seminal::server::Request::Method::Check) << R.Error;
  EXPECT_EQ(R.Id, "17");
  EXPECT_EQ(R.Session, "p000012-s4");
  EXPECT_EQ(R.Source, "let x = \"a\"\n  + 1");
  EXPECT_EQ(sessionName(12, 4), "p000012-s4");
}

TEST(Digest, FnvAndCanonicalForm) {
  EXPECT_EQ(digest(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(digest("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(canonicalOutput("conv", {"m1", "m2"}), "conv\x1em1\x1em2");
  // Moving text between the conventional message and a suggestion
  // changes the digest.
  EXPECT_NE(digest(canonicalOutput("ab", {"c"})),
            digest(canonicalOutput("a", {"bc"})));
}

TEST(Digest, RendersTheDaemonsFormOfAReport) {
  seminal::SeminalReport R =
      seminal::runSeminalOnSource("let f x = x + 1\nlet y = f true\n");
  ASSERT_FALSE(R.InputTypechecks);
  std::string Out = renderReport(R);
  EXPECT_EQ(Out.rfind(R.conventionalMessage(), 0), 0u);
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\x1e'),
            std::ptrdiff_t(R.Suggestions.size()));
  EXPECT_EQ(renderReport(seminal::runSeminalOnSource("let x = 1\n")), "");
}

TEST(Replies, CheckReplyYieldsOutputAndCost) {
  Reply R = parseCheckReply(
      "{\"id\":5,\"ok\":true,\"input_typechecks\":false,\"failing_decl\":0,"
      "\"budget_exhausted\":false,\"conventional\":\"conv\","
      "\"suggestions\":[{\"rank\":1,\"message\":\"m1\"},"
      "{\"rank\":2,\"message\":\"m2\"}],\"oracle_calls\":12,"
      "\"inference_runs\":3,\"warm\":{\"prefix_hits\":4,"
      "\"verdict_reuses\":5,\"seed_adoptions\":1,\"conv_memo_hits\":1},"
      "\"cost\":{\"cpu_ns\":900,\"wall_ns\":1000}}");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Id, "5");
  EXPECT_EQ(R.Output, canonicalOutput("conv", {"m1", "m2"}));
  EXPECT_EQ(R.WallNs, 1000);
  EXPECT_EQ(R.CpuNs, 900);
  EXPECT_EQ(R.OracleCalls, 12);
  EXPECT_EQ(R.InferenceRuns, 3);
  EXPECT_EQ(R.PrefixHits, 4);
  EXPECT_EQ(R.VerdictReuses, 5);
  EXPECT_EQ(R.SeedAdoptions, 1);
  EXPECT_EQ(R.ConvMemoHits, 1);
}

TEST(Replies, ErrorReplySyntaxErrorAndGarbageCountAsFailed) {
  Reply Error = parseCheckReply(
      "{\"id\":5,\"ok\":false,\"error\":\"missing source\"}");
  EXPECT_FALSE(Error.Ok);
  EXPECT_EQ(Error.Id, "5");
  EXPECT_NE(Error.Error.find("missing source"), std::string::npos);

  Reply Syntax =
      parseCheckReply("{\"id\":6,\"ok\":true,\"syntax_error\":\"1:3\"}");
  EXPECT_FALSE(Syntax.Ok);
  EXPECT_NE(Syntax.Error.find("syntax"), std::string::npos);

  EXPECT_FALSE(parseCheckReply("{\"id\":7,\"ok\":tr").Ok);
  EXPECT_FALSE(parseCheckReply("{\"id\":8,\"ok\":true}").Ok)
      << "a check reply without its members is a failure";
}
