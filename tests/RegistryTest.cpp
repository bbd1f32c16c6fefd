//===- RegistryTest.cpp - Tests for the open change framework -------------==//
//
// Section 6's "open system where programmers could describe new ...
// constructive changes": generators plug into the enumerator without
// touching the searcher, and oracle vetting keeps them sound.
//
//===----------------------------------------------------------------------===//

#include "SuggestionTestUtil.h"
#include "core/ChangeRegistry.h"
#include "core/Seminal.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

using namespace seminal;
using namespace seminal::caml;

namespace {

/// A custom change: convert an int-typed expression used where a string
/// is wanted by wrapping it in string_of_int.
void stringOfIntGenerator(const Expr &Node,
                          std::vector<CandidateChange> &Out) {
  if (Node.kind() != Expr::Kind::Var && Node.kind() != Expr::Kind::IntLit &&
      Node.kind() != Expr::Kind::App && Node.kind() != Expr::Kind::BinOp)
    return;
  CandidateChange C;
  std::vector<ExprPtr> Args;
  Args.push_back(Node.clone());
  C.Replacement = makeApp(makeVar("string_of_int"), std::move(Args));
  C.Description = "convert the integer to a string with string_of_int";
  Out.push_back(std::move(C));
}

TEST(ChangeRegistryTest, StartsEmpty) {
  ChangeRegistry Reg;
  EXPECT_TRUE(Reg.empty());
  EXPECT_EQ(Reg.size(), 0u);
}

TEST(ChangeRegistryTest, RegisteredGeneratorRuns) {
  ChangeRegistry Reg;
  Reg.add("string_of_int-wrap", stringOfIntGenerator);
  EXPECT_EQ(Reg.size(), 1u);
  EXPECT_EQ(Reg.names()[0], "string_of_int-wrap");

  ParseExprResult E = parseExpression("n");
  std::vector<CandidateChange> Out;
  Reg.generate(*E.E, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(printExpr(*Out[0].Replacement), "string_of_int n");
}

TEST(ChangeRegistryTest, FlowsThroughTheEnumerator) {
  ChangeRegistry Reg;
  Reg.add("string_of_int-wrap", stringOfIntGenerator);
  EnumeratorOptions Opts;
  Opts.Extra = &Reg;
  ParseExprResult E = parseExpression("n");
  // A bare variable has no built-in changes; only the custom one shows.
  auto Changes = enumerateChanges(*E.E, Opts);
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_EQ(Changes[0].Description,
            "convert the integer to a string with string_of_int");
}

TEST(ChangeRegistryTest, CustomChangeWinsEndToEnd) {
  // "count: " ^ (n * 2) -- the built-in catalog can only adapt or remove
  // the int expression; the custom change provides the actual fix and
  // outranks both.
  ChangeRegistry Reg;
  Reg.add("string_of_int-wrap", stringOfIntGenerator);

  SeminalOptions Opts;
  Opts.Search.Enum.Extra = &Reg;
  SeminalReport R = runSeminalOnSource(
      "let report n = \"count: \" ^ (n * 2)\n", Opts);
  ASSERT_FALSE(R.Suggestions.empty());
  const Suggestion &Top = R.Suggestions.front();
  EXPECT_EQ(Top.Kind, ChangeKind::Constructive);
  ASSERT_NE(Top.Replacement, nullptr);
  EXPECT_EQ(printExpr(*Top.Replacement), "string_of_int (n * 2)");
  ASSERT_TRUE(Top.ReplacementType.has_value());
  EXPECT_EQ(*Top.ReplacementType, "string");
}

TEST(ChangeRegistryTest, WithoutRegistryNoConstructiveFix) {
  SeminalReport R =
      runSeminalOnSource("let report n = \"count: \" ^ (n * 2)\n");
  ASSERT_FALSE(R.Suggestions.empty());
  EXPECT_NE(R.Suggestions.front().Kind, ChangeKind::Constructive);
}

TEST(ChangeRegistryTest, UnsoundGeneratorsAreVetted) {
  // A generator producing garbage replacements: the oracle rejects them
  // all; no unsound suggestion can surface (the safety property that
  // makes the framework open).
  ChangeRegistry Reg;
  Reg.add("garbage", [](const Expr &Node, std::vector<CandidateChange> &Out) {
    CandidateChange C;
    C.Replacement = makeApp(makeVar("no_such_function"),
                            [] {
                              std::vector<ExprPtr> Args;
                              Args.push_back(makeIntLit(1));
                              return Args;
                            }());
    C.Description = "garbage";
    Out.push_back(std::move(C));
  });
  SeminalOptions Opts;
  Opts.Search.Enum.Extra = &Reg;
  Program Input = std::move(*parseProgram("let x = 1 + \"two\"").Prog);
  SeminalReport R = runSeminal(Input, Opts);
  for (const auto &S : R.Suggestions)
    EXPECT_NE(S.Description, "garbage");
  // And untriaged suggestions remain sound.
  for (const auto &S : R.Suggestions) {
    if (!S.ViaTriage) {
      EXPECT_TRUE(typecheckProgram(appliedProgram(Input, S)).ok());
    }
  }
}

TEST(ChangeRegistryTest, MultipleGeneratorsAllRun) {
  ChangeRegistry Reg;
  int Calls = 0;
  Reg.add("a", [&](const Expr &, std::vector<CandidateChange> &) { ++Calls; });
  Reg.add("b", [&](const Expr &, std::vector<CandidateChange> &) { ++Calls; });
  ParseExprResult E = parseExpression("x");
  std::vector<CandidateChange> Out;
  Reg.generate(*E.E, Out);
  EXPECT_EQ(Calls, 2);
}

//===----------------------------------------------------------------------===//
// Triage (Section 2.4): siblings are wildcarded rightmost first, the
// paper's order ("the details ... are less important")
//===----------------------------------------------------------------------===//

TEST(TriageTest, RightmostFirstRemovalFindsSmallFixes) {
  SeminalReport R = runSeminalOnSource("let go y =\n"
                                       "  let a = 3 + true in\n"
                                       "  let b = 4 + \"hi\" in\n"
                                       "  y + 1\n");
  bool FoundSmall = false;
  for (const auto &S : R.Suggestions)
    if (S.ViaTriage && S.OriginalSize < 5)
      FoundSmall = true;
  EXPECT_TRUE(FoundSmall);
}

} // namespace
