//===- EvalTest.cpp - Tests for the automated judge and categories --------==//

#include "core/Oracle.h"
#include "eval/Runner.h"
#include "minicaml/Parser.h"

#include <gtest/gtest.h>

using namespace seminal;
using namespace seminal::caml;

namespace {

Program parse(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->str() : "");
  return R.ok() ? std::move(*R.Prog) : Program();
}

//===----------------------------------------------------------------------===//
// Path utilities
//===----------------------------------------------------------------------===//

TEST(PathDistanceTest, SameNodeIsZero) {
  NodePath A(0);
  A.Steps = {1, 2};
  EXPECT_EQ(pathDistance(A, A), std::optional<unsigned>(0));
}

TEST(PathDistanceTest, AncestorDescendant) {
  NodePath A(0), B(0);
  A.Steps = {1};
  B.Steps = {1, 0, 2};
  EXPECT_EQ(pathDistance(A, B), std::optional<unsigned>(2));
  EXPECT_EQ(pathDistance(B, A), std::optional<unsigned>(2));
}

TEST(PathDistanceTest, SiblingsAreUnrelated) {
  NodePath A(0), B(0);
  A.Steps = {1};
  B.Steps = {2};
  EXPECT_FALSE(pathDistance(A, B).has_value());
}

TEST(PathDistanceTest, DifferentDeclsAreUnrelated) {
  NodePath A(0), B(1);
  EXPECT_FALSE(pathDistance(A, B).has_value());
}

TEST(PathAtOffsetTest, FindsDeepestNode) {
  std::string Src = "let x = f (a + b) c";
  Program P = parse(Src);
  uint32_t AOffset = uint32_t(Src.find('a'));
  auto Path = pathAtOffset(P, AOffset);
  ASSERT_TRUE(Path.has_value());
  const Expr *Node = resolvePath(P, *Path);
  ASSERT_NE(Node, nullptr);
  EXPECT_EQ(Node->kind(), Expr::Kind::Var);
  EXPECT_EQ(Node->Name, "a");
}

TEST(PathAtOffsetTest, OffsetOutsideAnyExprIsNull) {
  std::string Src = "let x = 1";
  Program P = parse(Src);
  EXPECT_FALSE(pathAtOffset(P, 0).has_value()); // 'l' of let
}

//===----------------------------------------------------------------------===//
// Judging the checker
//===----------------------------------------------------------------------===//

TEST(JudgeCheckerTest, ExactBlameIsAccurate) {
  // Truth: the string literal replaced by 0 at `1 + "s"`-style site.
  std::string Src = "let x = \"a\" ^ 0";
  Program P = parse(Src);
  CamlOracle O;
  auto Error = O.conventionalError(P);
  ASSERT_TRUE(Error.has_value());

  GroundTruth T;
  T.Kind = MutationKind::IntForString;
  T.Path = NodePath(0);
  T.Path.Steps = {1}; // the right operand
  EXPECT_EQ(judgeChecker(P, Error, {T}), Quality::Accurate);
}

TEST(JudgeCheckerTest, MisleadingBlameIsPoor) {
  // Figure 2: the checker blames x + y, where no change can help.
  std::string Src =
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n";
  Program P = parse(Src);
  CamlOracle O;
  auto Error = O.conventionalError(P);
  ASSERT_TRUE(Error.has_value());

  // Ground truth: the tupled lambda (decl 1, first argument of map2).
  GroundTruth T;
  T.Kind = MutationKind::TupleCurriedFun;
  T.Path = NodePath(1);
  T.Path.Steps = {1};
  EXPECT_EQ(judgeChecker(P, Error, {T}), Quality::Poor);
}

TEST(JudgeCheckerTest, UnboundVariableBlameIsAccurate) {
  std::string Src = "let f x = strle x";
  Program P = parse(Src);
  CamlOracle O;
  auto Error = O.conventionalError(P);
  ASSERT_TRUE(Error.has_value());
  EXPECT_EQ(Error->TheKind, TypeError::Kind::Unbound);

  GroundTruth T;
  T.Kind = MutationKind::MisspellVar;
  T.Path = NodePath(0);
  T.Path.Steps = {0}; // callee of the application
  EXPECT_EQ(judgeChecker(P, Error, {T}), Quality::Accurate);
}

TEST(JudgeCheckerTest, NoErrorIsPoor) {
  Program P = parse("let x = 1");
  EXPECT_EQ(judgeChecker(P, std::nullopt, {}), Quality::Poor);
}

//===----------------------------------------------------------------------===//
// Judging SEMINAL
//===----------------------------------------------------------------------===//

TEST(JudgeSeminalTest, Figure2TopSuggestionIsAccurate) {
  std::string Src =
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n";
  SeminalReport R = runSeminalOnSource(Src);

  GroundTruth T;
  T.Kind = MutationKind::TupleCurriedFun;
  T.Path = NodePath(1);
  T.Path.Steps = {1};
  EXPECT_EQ(judgeSeminal(R, {T}), Quality::Accurate);
}

TEST(JudgeSeminalTest, EmptyReportIsPoor) {
  SeminalReport R;
  EXPECT_EQ(judgeSeminal(R, {}), Quality::Poor);
}

TEST(JudgeSeminalTest, WrongSubtreeIsPoor) {
  std::string Src = "let x = 1 + \"two\"\n";
  SeminalReport R = runSeminalOnSource(Src);
  ASSERT_FALSE(R.Suggestions.empty());
  GroundTruth T;
  T.Kind = MutationKind::IntForString;
  T.Path = NodePath(0);
  T.Path.Steps = {0, 0, 0, 0, 0}; // nonsense far-away path
  EXPECT_EQ(judgeSeminal(R, {T}), Quality::Poor);
}

//===----------------------------------------------------------------------===//
// Categories
//===----------------------------------------------------------------------===//

TEST(CategoriesTest, FullTable) {
  using Q = Quality;
  // checker better
  EXPECT_EQ(categorize(Q::Accurate, Q::Poor, Q::Poor),
            Category::CheckerBetter);
  EXPECT_EQ(categorize(Q::GoodLocation, Q::Poor, Q::Poor),
            Category::CheckerBetter);
  // ours better without triage
  EXPECT_EQ(categorize(Q::Poor, Q::Accurate, Q::Accurate),
            Category::OursBetterNoTriage);
  // ours better only thanks to triage
  EXPECT_EQ(categorize(Q::Poor, Q::Accurate, Q::Poor),
            Category::OursBetterNeedsTriage);
  // plain tie
  EXPECT_EQ(categorize(Q::Accurate, Q::Accurate, Q::Accurate),
            Category::TieNoTriage);
  // tie that needed triage
  EXPECT_EQ(categorize(Q::Accurate, Q::Accurate, Q::Poor),
            Category::TieNeedsTriage);
  // both poor is still a tie
  EXPECT_EQ(categorize(Q::Poor, Q::Poor, Q::Poor), Category::TieNoTriage);
}

TEST(CategoriesTest, CountsArithmetic) {
  CategoryCounts C;
  C.add(Category::TieNoTriage, false);
  C.add(Category::TieNoTriage, true);
  C.add(Category::OursBetterNoTriage, false);
  C.add(Category::OursBetterNeedsTriage, false);
  C.add(Category::CheckerBetter, false);
  EXPECT_EQ(C.Total, 5u);
  EXPECT_EQ(C.oursBetter(), 2u);
  EXPECT_EQ(C.checkerBetter(), 1u);
  EXPECT_EQ(C.noWorse(), 4u);
  EXPECT_EQ(C.triageHelped(), 1u);
  EXPECT_EQ(C.BothPoorTies, 1u);
  EXPECT_DOUBLE_EQ(C.pct(C.oursBetter()), 40.0);
}

//===----------------------------------------------------------------------===//
// End-to-end runner on a small corpus
//===----------------------------------------------------------------------===//

TEST(RunnerTest, SmallCorpusEvaluation) {
  CorpusOptions CO;
  CO.Scale = 0.12;
  Corpus C = generateCorpus(CO);
  ASSERT_GT(C.Analyzed.size(), 10u);

  EvalResults R = runEvaluation(C);
  EXPECT_EQ(R.Files.size(), C.Analyzed.size());

  CategoryCounts Totals = R.totals();
  EXPECT_EQ(Totals.Total, unsigned(R.Files.size()));

  // Shape assertions mirroring the paper's headline: the search-based
  // approach is no worse than the checker on a clear majority of files.
  EXPECT_GT(Totals.pct(Totals.noWorse()), 55.0);

  // Per-group tables partition the totals.
  unsigned ProgSum = 0;
  for (const auto &KV : R.byProgrammer())
    ProgSum += KV.second.Total;
  EXPECT_EQ(ProgSum, Totals.Total);
  unsigned AsgSum = 0;
  for (const auto &KV : R.byAssignment())
    AsgSum += KV.second.Total;
  EXPECT_EQ(AsgSum, Totals.Total);
}

TEST(RunnerTest, SingleFileOutcomeFields) {
  CorpusOptions CO;
  CO.Scale = 0.12;
  Corpus C = generateCorpus(CO);
  ASSERT_FALSE(C.Analyzed.empty());
  EvalOptions EO;
  EO.MeasureTimes = true;
  FileOutcome Out = evaluateFile(C.Analyzed.front(), EO);
  EXPECT_GT(Out.OracleCallsFull, 0u);
  EXPECT_GT(Out.FullSeconds, 0.0);
  EXPECT_GT(Out.NoTriageSeconds, 0.0);
  EXPECT_GT(Out.NoReparenSeconds, 0.0);
}

} // namespace
