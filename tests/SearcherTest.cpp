//===- SearcherTest.cpp - End-to-end tests for the search procedure -------==//
//
// Exercises the full pipeline (oracle + searcher + ranker + messages) on
// the paper's running examples and on a battery of mutated programs,
// including the key soundness invariant: every untriaged suggestion's
// modified program type-checks.
//
//===----------------------------------------------------------------------===//

#include "core/CheckpointedOracle.h"
#include "core/Oracle.h"
#include "core/Ranker.h"
#include "core/Searcher.h"
#include "core/Seminal.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace seminal;
using namespace seminal::caml;

namespace {

SeminalReport run(const std::string &Source, SeminalOptions Opts = {}) {
  return runSeminalOnSource(Source, Opts);
}

std::string allSuggestions(const SeminalReport &R) {
  std::string Out;
  for (const auto &S : R.Suggestions) {
    Out += "  [" + std::to_string(long(S.Kind)) +
           (S.ViaTriage ? ",triage" : "") + "] ";
    if (S.Original)
      Out += printExpr(*S.Original) + " => ";
    if (S.Replacement)
      Out += printExpr(*S.Replacement);
    Out += "  (" + S.Description + ")\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Bypass and localization
//===----------------------------------------------------------------------===//

TEST(SearcherTest, WellTypedInputBypasses) {
  SeminalReport R = run("let x = 1\nlet y = x + 1");
  EXPECT_TRUE(R.InputTypechecks);
  EXPECT_TRUE(R.Suggestions.empty());
  EXPECT_EQ(R.bestMessage(), "No type errors.");
}

TEST(SearcherTest, SyntaxErrorIsReported) {
  SeminalReport R = run("let x = ");
  ASSERT_TRUE(R.SyntaxError.has_value());
  EXPECT_NE(R.bestMessage().find("Syntax error"), std::string::npos);
}

TEST(SearcherTest, PrefixLocalizationFindsFailingDecl) {
  SeminalReport R = run("let a = 1\nlet b = a + true\nlet c = b");
  ASSERT_TRUE(R.FailingDeclIndex.has_value());
  EXPECT_EQ(*R.FailingDeclIndex, 1u);
}

TEST(SearcherTest, LaterDeclsAreNeverExamined) {
  // The third declaration is also broken; search must focus on the second
  // (the paper's searcher does not examine the third binding).
  SeminalReport R = run("let a = 1\nlet b = a + true\nlet c = 1 + \"x\"");
  ASSERT_TRUE(R.FailingDeclIndex.has_value());
  EXPECT_EQ(*R.FailingDeclIndex, 1u);
  for (const auto &S : R.Suggestions)
    EXPECT_EQ(S.Path.DeclIndex, 1u);
}

//===----------------------------------------------------------------------===//
// Paper examples
//===----------------------------------------------------------------------===//

TEST(SearcherPaperTest, Figure2CurryTheTupledFunction) {
  SeminalReport R = run(
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n");
  ASSERT_FALSE(R.Suggestions.empty());
  const Suggestion &Top = R.Suggestions.front();
  EXPECT_EQ(Top.Kind, ChangeKind::Constructive) << allSuggestions(R);
  ASSERT_NE(Top.Original, nullptr);
  EXPECT_EQ(printExpr(*Top.Original), "fun (x, y) -> x + y")
      << allSuggestions(R);
  EXPECT_EQ(printExpr(*Top.Replacement), "fun x y -> x + y");
  ASSERT_TRUE(Top.ReplacementType.has_value());
  EXPECT_EQ(*Top.ReplacementType, "int -> int -> int");
  EXPECT_FALSE(Top.ViaTriage);
  // The rendered message mirrors the paper's Figure 2.
  std::string Msg = R.bestMessage();
  EXPECT_NE(Msg.find("fun (x, y) -> x + y"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("fun x y -> x + y"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("int -> int -> int"), std::string::npos) << Msg;
}

TEST(SearcherPaperTest, Figure8SwapTheArguments) {
  SeminalReport R = run("let add str lst = if List.mem str lst then lst\n"
                        "                  else str :: lst\n"
                        "let vList1 = [\"a\"; \"b\"]\n"
                        "let s = \"c\"\n"
                        "let out = add vList1 s\n");
  ASSERT_FALSE(R.Suggestions.empty()) << R.conventionalMessage();
  const Suggestion &Top = R.Suggestions.front();
  EXPECT_EQ(Top.Kind, ChangeKind::Constructive) << allSuggestions(R);
  ASSERT_NE(Top.Original, nullptr);
  EXPECT_EQ(printExpr(*Top.Original), "add vList1 s") << allSuggestions(R);
  EXPECT_EQ(printExpr(*Top.Replacement), "add s vList1");
}

TEST(SearcherPaperTest, Figure9AddTheMissingArgument) {
  SeminalReport R = run(
      "type move = For of int * move list | Stop\n"
      "let rec loop movelist acc =\n"
      "  match movelist with\n"
      "    [] -> acc\n"
      "  | For (moves, lst) :: tl ->\n"
      "      let rec finalLst index searchLst =\n"
      "        if index = moves - 1 then []\n"
      "        else (List.nth searchLst) :: finalLst (index + 1) searchLst\n"
      "      in loop (finalLst 0 lst) acc\n"
      "  | Stop :: tl -> loop tl acc\n");
  ASSERT_FALSE(R.Suggestions.empty()) << R.conventionalMessage();
  const Suggestion &Top = R.Suggestions.front();
  EXPECT_EQ(Top.Kind, ChangeKind::Constructive) << allSuggestions(R);
  ASSERT_NE(Top.Original, nullptr);
  EXPECT_EQ(printExpr(*Top.Original), "List.nth searchLst")
      << allSuggestions(R);
  EXPECT_EQ(printExpr(*Top.Replacement), "List.nth searchLst [[...]]");
}

TEST(SearcherPaperTest, Section23AdaptationPrefersLargerExpression) {
  // if e1 e2 then ... where e1 e2 : string (well-typed but not bool).
  SeminalReport R = run("let e1 x = x ^ \"!\"\n"
                        "let e2 = \"s\"\n"
                        "let t = if e1 e2 then 1 else 2\n");
  ASSERT_FALSE(R.Suggestions.empty());
  const Suggestion &Top = R.Suggestions.front();
  EXPECT_EQ(Top.Kind, ChangeKind::Adaptation) << allSuggestions(R);
  ASSERT_NE(Top.Original, nullptr);
  // Adaptation prefers the larger expression e1 e2 over e1 alone.
  EXPECT_EQ(printExpr(*Top.Original), "e1 e2") << allSuggestions(R);
  // The reported type is what the context wanted: bool.
  ASSERT_TRUE(Top.ReplacementType.has_value());
  EXPECT_EQ(*Top.ReplacementType, "bool");
}

TEST(SearcherPaperTest, LetWithManyUsesSuggestsChangingTheDefinition) {
  // let x = e1 in e2 where e2 uses x many times at another type: the
  // checker blames a use; the search suggests changing (removing) e1.
  SeminalReport R = run("let f y =\n"
                        "  let x = \"oops\" in\n"
                        "  (x + 1) + (x + 2) + (x + 3) + (x + 4)\n");
  ASSERT_FALSE(R.Suggestions.empty());
  const Suggestion &Top = R.Suggestions.front();
  ASSERT_NE(Top.Original, nullptr);
  EXPECT_EQ(printExpr(*Top.Original), "\"oops\"") << allSuggestions(R);
}

TEST(SearcherPaperTest, UnboundVariableDetectedViaAdaptFailure) {
  // Section 3.3: `print` for `print_string` -- removal succeeds where
  // adaptation fails, the unbound-variable tell.
  SeminalReport R = run("let f x = print x; x + 1\n");
  ASSERT_FALSE(R.Suggestions.empty()) << R.conventionalMessage();
  bool FoundUnbound = false;
  for (const auto &S : R.Suggestions)
    if (S.LikelyUnboundVariable && S.Original &&
        printExpr(*S.Original) == "print")
      FoundUnbound = true;
  EXPECT_TRUE(FoundUnbound) << allSuggestions(R);
}

//===----------------------------------------------------------------------===//
// Triage (Section 2.4)
//===----------------------------------------------------------------------===//

TEST(TriageTest, TwoIndependentErrorsBothFindable) {
  // let x = 3 + true in ... 4 + "hi" ...: without triage the only
  // suggestion is removing everything; with triage we find a small fix.
  std::string Src = "let go y =\n"
                    "  let x = 3 + true in\n"
                    "  let z = y + 1 in\n"
                    "  let w = 4 + \"hi\" in\n"
                    "  z\n";
  SeminalReport R = run(Src);
  ASSERT_FALSE(R.Suggestions.empty());
  // Some suggestion must be a small triaged fix (size < 5), not the
  // removal of the entire nested let chain.
  bool FoundSmall = false;
  for (const auto &S : R.Suggestions)
    if (S.ViaTriage && S.OriginalSize < 5)
      FoundSmall = true;
  EXPECT_TRUE(FoundSmall) << allSuggestions(R);
}

TEST(TriageTest, WithoutTriageOnlyBigRemoval) {
  std::string Src = "let go y =\n"
                    "  let x = 3 + true in\n"
                    "  let z = y + 1 in\n"
                    "  let w = 4 + \"hi\" in\n"
                    "  z\n";
  SeminalOptions Opts;
  Opts.Search.EnableTriage = false;
  SeminalReport R = run(Src, Opts);
  for (const auto &S : R.Suggestions) {
    EXPECT_FALSE(S.ViaTriage);
    // Everything on offer is a large change.
    EXPECT_GE(S.OriginalSize, 5u) << allSuggestions(R);
  }
}

TEST(TriageTest, Figure4PatternTriage) {
  // The paper's Figure 4: several independent errors inside one match.
  // y's list type is pinned by List.length so the pattern 5 conflicts.
  std::string Src = "let f x y =\n"
                    "  let n = List.length y in\n"
                    "  match (x, y) with\n"
                    "    (0, []) -> []\n"
                    "  | (m, []) -> m\n"
                    "  | (_, 5) -> 5 + \"hi\"\n";
  SeminalReport R = run(Src);
  ASSERT_FALSE(R.Suggestions.empty()) << R.conventionalMessage();
  bool FoundPatternFix = false;
  for (const auto &S : R.Suggestions)
    if (S.Kind == ChangeKind::PatternFix && S.PatternBefore == "5")
      FoundPatternFix = true;
  EXPECT_TRUE(FoundPatternFix) << allSuggestions(R);
}

TEST(TriageTest, TriagedMessageSaysErrorsRemain) {
  std::string Src = "let go y =\n"
                    "  let x = 3 + true in\n"
                    "  let w = 4 + \"hi\" in\n"
                    "  y\n";
  SeminalReport R = run(Src);
  ASSERT_FALSE(R.Suggestions.empty());
  bool AnyTriaged = false;
  for (const auto &S : R.Suggestions)
    if (S.ViaTriage) {
      AnyTriaged = true;
      std::string Msg = renderSuggestion(S);
      EXPECT_NE(Msg.find("several type errors"), std::string::npos) << Msg;
      EXPECT_NE(Msg.find("other type errors remain"), std::string::npos)
          << Msg;
    }
  EXPECT_TRUE(AnyTriaged) << allSuggestions(R);
}

TEST(TriageTest, BrokenScrutineeFoundInPhaseOne) {
  std::string Src = "let f a =\n"
                    "  match (a + \"x\", a) with\n"
                    "    (_, 0) -> 1 + true\n"
                    "  | _ -> 2 + \"y\"\n";
  SeminalReport R = run(Src);
  ASSERT_FALSE(R.Suggestions.empty());
  // Phase 1 should focus the scrutinee; a fix inside `a + "x"` appears.
  bool FoundScrutineeFix = false;
  for (const auto &S : R.Suggestions)
    if (S.Original && printExpr(*S.Original).find("\"x\"") == 0)
      FoundScrutineeFix = true;
  EXPECT_TRUE(FoundScrutineeFix) << allSuggestions(R);
}

//===----------------------------------------------------------------------===//
// Soundness: applying an untriaged suggestion yields a well-typed program
//===----------------------------------------------------------------------===//

class SuggestionSoundness : public ::testing::TestWithParam<const char *> {};

TEST_P(SuggestionSoundness, UntriagedSuggestionsTypecheck) {
  SeminalReport R = run(GetParam());
  ASSERT_FALSE(R.InputTypechecks);
  for (const auto &S : R.Suggestions) {
    if (S.ViaTriage)
      continue;
    TypecheckResult TR = typecheckProgram(S.Modified);
    EXPECT_TRUE(TR.ok()) << "suggestion left program ill-typed:\n"
                         << renderSuggestion(S) << "\nerror: "
                         << (TR.Error ? TR.Error->Message : "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, SuggestionSoundness,
    ::testing::Values(
        "let x = 1 + \"two\"",
        "let f (x, y) = x + y\nlet z = f 1 2",
        "let f x y = x + y\nlet z = f (1, 2)",
        "let x = [1, 2, 3]\nlet y = List.map (fun v -> v + 1) x",
        "let x = if true then 1",
        "let r = ref 0\nlet y = r + 1",
        "let l = 1 :: 2",
        "let f x = x ^ \"!\"\nlet y = f 3",
        "let len xs = match xs with [] -> 0 | _ :: t -> 1 + len t",
        "let swap (a, b) = (b, a)\nlet p = swap 1 2",
        "let x = List.nth 0 [1; 2]",
        "let s = \"a\" + \"b\"",
        "let f a b c = a + b + c\nlet x = f 1 2 + 3",
        "let x = (1, 2)\nlet y = fst x + snd x + x"));

// Captured programs keep their trees alive: every suggestion's Modified
// is read only after the searcher, the oracle and the input are gone (the
// ASan job turns a dangling capture into a failure here).
TEST(SuggestionCaptureTest, ModifiedOutlivesSearcherOracleAndInput) {
  const std::string Source = "let one = 1\n"
                             "let add a b = a + b\n"
                             "let x = add one \"two\"\n";
  std::vector<Suggestion> Captured;
  {
    auto Input = std::make_unique<Program>(std::move(*parseProgram(Source).Prog));
    auto Oracle = std::make_unique<CheckpointedOracle>();
    auto S = std::make_unique<Searcher>(*Oracle, SearchOptions(),
                                        Oracle->arena());
    SearchOutput Out = S->run(*Input);
    ASSERT_EQ(Out.FailingDecl, std::optional<unsigned>(2u));
    Captured = std::move(Out.Suggestions);
    S.reset();
    Oracle.reset();
    Input.reset();
  }
  ASSERT_FALSE(Captured.empty());
  size_t Checked = 0;
  for (const Suggestion &Sugg : Captured) {
    const Program &Modified = Sugg.Modified;
    ASSERT_EQ(Modified.Decls.size(), 3u) << Sugg.Description;
    if (Sugg.Replacement) {
      Program Expected = std::move(*parseProgram(Source).Prog);
      replaceAtPath(editDecl(Expected, Sugg.Path.DeclIndex), Sugg.Path,
                    Sugg.Replacement->clone());
      EXPECT_TRUE(Modified.equals(Expected)) << Sugg.Description;
      EXPECT_EQ(printProgram(Modified), printProgram(Expected));
      ++Checked;
    }
    if (!Sugg.ViaTriage) {
      EXPECT_TRUE(typecheckProgram(Modified).ok()) << printProgram(Modified);
    }
  }
  EXPECT_GT(Checked, 0u);
}

/// Inputs whose searches take every editing path: constructive and
/// declaration-level changes, adaptation, removal, generic triage, and
/// match triage with pattern fixes, behind let, type and exception
/// declarations.
const char *SharingSources[] = {
    "type shape = Circle of int | Square of int\n"
    "exception Bad of string\n"
    "let one = 1\n"
    "let add a b = a + b\n"
    "let x = add one \"two\"\n",
    "let f (x, y) = x + y\nlet z = f 1 2\n",
    "let go y =\n"
    "  let a = 3 + true in\n"
    "  let b = 4 + \"hi\" in\n"
    "  y + 1\n",
    "let k = 2\n"
    "let g x = match x with\n"
    "    [] -> 0\n"
    "  | 5 -> 1\n"
    "  | h :: t -> h + \"s\"\n",
};

// The search edits a private clone of the failing declaration only: its
// input keeps the same declaration objects, with the same structure.
TEST(SuggestionCaptureTest, SearchLeavesInputUnchanged) {
  for (const char *Source : SharingSources) {
    Program Input = std::move(*parseProgram(Source).Prog);
    std::vector<const Decl *> Before;
    Program Deep;
    for (const DeclPtr &D : Input.Decls) {
      Before.push_back(D.get());
      Deep.Decls.push_back(D->clone());
    }
    const std::string Printed = printProgram(Input);
    CheckpointedOracle Oracle;
    Searcher S(Oracle, SearchOptions(), Oracle.arena());
    SearchOutput Out = S.run(Input);
    ASSERT_FALSE(Out.Suggestions.empty()) << Source;
    ASSERT_EQ(Input.Decls.size(), Before.size());
    for (size_t I = 0; I < Before.size(); ++I)
      EXPECT_EQ(Input.Decls[I].get(), Before[I]) << Source << " decl " << I;
    EXPECT_TRUE(Input.equals(Deep)) << Source;
    EXPECT_EQ(printProgram(Input), Printed);
  }
}

// Each suggestion's Modified shares the input's prefix declarations and
// owns its own snapshot of the edited one.
TEST(SuggestionCaptureTest, ModifiedSharesPrefixAndOwnsFocus) {
  for (const char *Source : SharingSources) {
    Program Input = std::move(*parseProgram(Source).Prog);
    CheckpointedOracle Oracle;
    Searcher S(Oracle, SearchOptions(), Oracle.arena());
    SearchOutput Out = S.run(Input);
    ASSERT_TRUE(Out.FailingDecl.has_value()) << Source;
    const unsigned Focus = *Out.FailingDecl;
    ASSERT_FALSE(Out.Suggestions.empty()) << Source;
    std::vector<const Decl *> Foci;
    for (const Suggestion &Sugg : Out.Suggestions) {
      const Program &M = Sugg.Modified;
      ASSERT_EQ(M.Decls.size(), Focus + 1u) << Sugg.Description;
      for (unsigned I = 0; I < Focus; ++I)
        EXPECT_EQ(M.Decls[I], Input.Decls[I]) << Sugg.Description;
      EXPECT_NE(M.Decls[Focus], Input.Decls[Focus]) << Sugg.Description;
      Foci.push_back(M.Decls[Focus].get());
    }
    std::sort(Foci.begin(), Foci.end());
    EXPECT_EQ(std::adjacent_find(Foci.begin(), Foci.end()), Foci.end())
        << Source << ": two suggestions share a focus declaration";
  }
}

//===----------------------------------------------------------------------===//
// Oracle accounting
//===----------------------------------------------------------------------===//

TEST(OracleTest, CallsAreCounted) {
  CamlOracle O;
  ParseResult P = parseProgram("let x = 1");
  ASSERT_TRUE(P.ok());
  EXPECT_EQ(O.callCount(), 0u);
  O.typechecks(*P.Prog);
  O.typechecks(*P.Prog);
  EXPECT_EQ(O.callCount(), 2u);
  O.resetCallCount();
  EXPECT_EQ(O.callCount(), 0u);
}

TEST(OracleTest, ReportsOracleCallsInReport) {
  SeminalReport R = run("let x = 1 + \"two\"");
  EXPECT_GT(R.OracleCalls, 0u);
}

TEST(OracleTest, GatingReducesOracleCalls) {
  // A 4-argument call whose arguments can never be fixed by permutation:
  // gating should prune the 4!-sized family.
  std::string Src = "let f a b c = a + b + c\n"
                    "let x = f 1 2 \"s\" true";
  SeminalOptions Gated;
  SeminalReport RGated = run(Src, Gated);
  SeminalOptions Ungated;
  Ungated.Search.Enum.GateExpensiveChanges = false;
  SeminalReport RUngated = run(Src, Ungated);
  EXPECT_LT(RGated.OracleCalls, RUngated.OracleCalls);
}

TEST(OracleTest, BudgetStopsSearchGracefully) {
  SeminalOptions Opts;
  Opts.Search.MaxOracleCalls = 5;
  SeminalReport R = run("let x = 1 + \"two\"\nlet y = x + 1", Opts);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_LE(R.OracleCalls, 6u);
}

//===----------------------------------------------------------------------===//
// Ranker unit behavior
//===----------------------------------------------------------------------===//

TEST(RankerTest, KindOrdering) {
  Suggestion C, A, Rm, T;
  C.Kind = ChangeKind::Constructive;
  A.Kind = ChangeKind::Adaptation;
  Rm.Kind = ChangeKind::Removal;
  T.Kind = ChangeKind::Constructive;
  T.ViaTriage = true;
  EXPECT_LT(scoreSuggestion(C), scoreSuggestion(A));
  EXPECT_LT(scoreSuggestion(A), scoreSuggestion(Rm));
  EXPECT_LT(scoreSuggestion(Rm), scoreSuggestion(T));
}

TEST(RankerTest, SmallerWinsForConstructive) {
  Suggestion Small, Big;
  Small.Kind = Big.Kind = ChangeKind::Constructive;
  Small.OriginalSize = 2;
  Big.OriginalSize = 10;
  EXPECT_LT(scoreSuggestion(Small), scoreSuggestion(Big));
}

TEST(RankerTest, LargerWinsForAdaptation) {
  Suggestion Small, Big;
  Small.Kind = Big.Kind = ChangeKind::Adaptation;
  Small.OriginalSize = 2;
  Big.OriginalSize = 10;
  EXPECT_LT(scoreSuggestion(Big), scoreSuggestion(Small));
}

TEST(RankerTest, FewerTriageRemovalsWin) {
  Suggestion A, B;
  A.Kind = B.Kind = ChangeKind::Constructive;
  A.ViaTriage = B.ViaTriage = true;
  A.TriageRemovals = 1;
  B.TriageRemovals = 3;
  EXPECT_LT(scoreSuggestion(A), scoreSuggestion(B));
}

TEST(RankerTest, RightBiasInApplications) {
  Suggestion Left, Right;
  Left.Kind = Right.Kind = ChangeKind::Removal;
  Left.OriginalSize = Right.OriginalSize = 3;
  Left.Path.Steps = {0};
  Right.Path.Steps = {1};
  EXPECT_LT(scoreSuggestion(Right), scoreSuggestion(Left));
}

TEST(RankerTest, DeduplicationDropsIdenticalSuggestions) {
  std::vector<Suggestion> Suggestions;
  for (int I = 0; I < 3; ++I) {
    Suggestion S;
    S.Kind = ChangeKind::Removal;
    S.Original = makeVar("x");
    S.Replacement = makeWildcard();
    S.Description = "remove this expression";
    Suggestions.push_back(std::move(S));
  }
  rankSuggestions(Suggestions);
  EXPECT_EQ(Suggestions.size(), 1u);
}

} // namespace
