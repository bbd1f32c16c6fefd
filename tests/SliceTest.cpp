//===- SliceTest.cpp - Tests for constraint-provenance error slicing -------==//
//
// Covers the three properties DESIGN.md section 9 promises:
//
//   * soundness  -- the change behind every top-ranked suggestion is rooted
//     at a node the slice did not rule out (corpus-wide),
//   * minimality -- on hand-written programs the minimized core is exactly
//     the jointly-clashing nodes, not the whole declaration,
//   * identity   -- computing the slice changes no oracle call and no
//     suggestion, only the ranking's in-slice boost (corpus-wide; the
//     fuzz variant lives in FuzzTest.cpp).
//
// Also pins the UnifyResult rollback fix: a failed unification must not
// leak partial bindings into rendered diagnostics.
//
//===----------------------------------------------------------------------===//

#include "SuggestionTestUtil.h"
#include "analysis/Slice.h"
#include "core/Message.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "minicaml/Infer.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace seminal;
using namespace seminal::analysis;
using namespace seminal::caml;

namespace {

Program parse(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->str() : "") << "\n" << Source;
  return R.ok() ? std::move(*R.Prog) : Program();
}

/// Index of the first declaration whose prefix fails to type-check.
unsigned failingDecl(const Program &P) {
  for (unsigned I = 0; I < P.Decls.size(); ++I) {
    TypecheckOptions Opts;
    Opts.DeclLimit = I + 1;
    if (!typecheckProgram(P, Opts).ok())
      return I;
  }
  ADD_FAILURE() << "program unexpectedly type-checks";
  return 0;
}

ErrorSlice slice(const Program &P, SliceOptions Opts = {}) {
  return computeErrorSlice(P, failingDecl(P), Opts);
}

/// The source text each core span covers, sorted for stable comparison.
std::vector<std::string> coreTexts(const std::string &Source,
                                   const ErrorSlice &S) {
  std::vector<std::string> Out;
  for (const SourceSpan &Sp : S.CoreSpans)
    Out.push_back(Source.substr(Sp.Begin.Offset, Sp.EndOffset - Sp.Begin.Offset));
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Options that keep every suggestion, so two runs compare in full.
SeminalOptions allSuggestions(bool ComputeSlice) {
  SeminalOptions Opts;
  Opts.MaxSuggestions = std::numeric_limits<size_t>::max();
  Opts.Search.ComputeSlice = ComputeSlice;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Basic validity
//===----------------------------------------------------------------------===//

TEST(SliceTest, WellTypedProgramYieldsInvalidSlice) {
  Program P = parse("let x = 1 + 2");
  ErrorSlice S = computeErrorSlice(P, 0);
  EXPECT_FALSE(S.Valid);
}

TEST(SliceTest, UnboundNameYieldsAnchoredSlice) {
  // Not a unification clash: no constraint component exists, so the
  // slicer falls back to a span-anchored core -- valid only because the
  // carved witness (everything else wildcarded) still fails to check.
  Program P = parse("let x = nosuchname + 1");
  ErrorSlice S = computeErrorSlice(P, 0);
  ASSERT_TRUE(S.Valid);
  EXPECT_TRUE(S.SpanAnchored);
  ASSERT_EQ(S.Core.size(), 1u);
  // The anchor is the deepest node enclosing the error span: the
  // offending variable itself.
  EXPECT_NE(S.render().find("anchor:"), std::string::npos);
}

TEST(SliceTest, AnchoredSliceLeavesSearchUnchanged) {
  // Non-unification failure (unbound name) in a declaration with plenty
  // of innocent structure: the anchored slice must not change a single
  // oracle call or suggestion.
  const char *Src = "let a = 1 + 2\n"
                    "let b = (a * 3, [a; 4], \"tag\")\n"
                    "let c = (a + 1, nosuchname 5, [2; 3])\n";
  SeminalReport RP = runSeminalOnSource(Src, allSuggestions(false));
  SeminalReport RR = runSeminalOnSource(Src, allSuggestions(true));
  ASSERT_TRUE(RR.Slice.has_value());
  EXPECT_TRUE(RR.Slice->SpanAnchored);
  EXPECT_EQ(RR.OracleCalls, RP.OracleCalls);
  ASSERT_FALSE(RR.Suggestions.empty());
  EXPECT_EQ(renderedSuggestions(RR), renderedSuggestions(RP));
}

TEST(SliceTest, OutOfRangeFocusYieldsInvalidSlice) {
  Program P = parse("let x = 1");
  EXPECT_FALSE(computeErrorSlice(P, 5).Valid);
}

TEST(SliceTest, SimpleClashProducesValidSlice) {
  Program P = parse("let x = 1 + \"two\"");
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  EXPECT_EQ(S.DeclIndex, 0u);
  EXPECT_FALSE(S.Cyclic);
  EXPECT_FALSE(S.Influence.empty());
  EXPECT_FALSE(S.Core.empty());
  EXPECT_LE(S.Core.size(), S.Influence.size());
  // The clash is int-vs-string; both named types show up in the component.
  EXPECT_NE(std::find(S.InvolvedTypes.begin(), S.InvolvedTypes.end(), "int"),
            S.InvolvedTypes.end());
  EXPECT_NE(std::find(S.InvolvedTypes.begin(), S.InvolvedTypes.end(),
                      "string"),
            S.InvolvedTypes.end());
}

TEST(SliceTest, RenderMentionsClashAndSpans) {
  Program P = parse("let x = 1 + \"two\"");
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  std::string R = S.render("test.ml");
  EXPECT_NE(R.find("test.ml"), std::string::npos);
  EXPECT_NE(R.find("int"), std::string::npos);
  EXPECT_NE(R.find("string"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Minimality on hand-written programs
//===----------------------------------------------------------------------===//

TEST(SliceTest, MinimalCoreExcludesInnocentBindings) {
  // The let-bound `a` and `b` are irrelevant; only the string literal and
  // the addition's int constraint clash.
  std::string Src = "let f =\n"
                    "  let a = 1 in\n"
                    "  let b = 2 in\n"
                    "  a + b + \"three\"";
  Program P = parse(Src);
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  std::vector<std::string> Texts = coreTexts(Src, S);
  // The innocent bindings never survive minimization.
  for (const std::string &T : Texts) {
    EXPECT_EQ(T.find("let a"), std::string::npos) << T;
    EXPECT_EQ(T.find("let b"), std::string::npos) << T;
  }
  // The offending literal does.
  bool HasString = false;
  for (const std::string &T : Texts)
    HasString |= T.find("\"three\"") != std::string::npos;
  EXPECT_TRUE(HasString) << S.render();
}

TEST(SliceTest, CoreIsAnAntichain) {
  std::string Src = "let f x =\n"
                    "  if x then 1 else \"no\"";
  Program P = parse(Src);
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  // No core path is a strict prefix (ancestor) of another.
  EXPECT_EQ(ancestorPair(S.Core), "");
}

TEST(SliceTest, SecondIndependentErrorKeepsTheDeepestNodes) {
  // Every wildcard still leaves the other arm's error, so minimization
  // keeps nothing; the core falls back to the deepest influence nodes,
  // not to the whole influence set with its ancestors.
  Program P = parse("let f a = match (a + \"x\", a) with "
                    "(_, 0) -> 1 + true | _ -> 2 + \"y\"");
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  ASSERT_EQ(S.Core.size(), 1u) << S.render();
  EXPECT_EQ(S.Core[0].str(), "decl 0.0.0.1");
  EXPECT_EQ(S.CoreSpans.size(), S.Core.size());
}

TEST(SliceTest, MinimizationRespectsCheckBudget) {
  std::string Src = "let f = 1 + 2 + 3 + 4 + 5 + \"six\"";
  Program P = parse(Src);
  SliceOptions Opts;
  Opts.MaxMinimizeChecks = 2;
  ErrorSlice S = slice(P, Opts);
  ASSERT_TRUE(S.Valid);
  EXPECT_LE(S.MinimizeChecks, 2u);
}

//===----------------------------------------------------------------------===//
// Cross-declaration influence
//===----------------------------------------------------------------------===//

TEST(SliceTest, UseSiteClashOfPrefixFunctionSetsPrefixInfluence) {
  // The clash manifests at the use of `inc`, but its cause connects to the
  // prefix declaration through instantiation-copy edges.
  std::string Src = "let inc x = x + 1\n"
                    "let y = inc \"hello\"";
  Program P = parse(Src);
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  EXPECT_EQ(S.DeclIndex, 1u);
  EXPECT_TRUE(S.PrefixInfluence) << S.render();
}

TEST(SliceTest, ParameterClashSetsDeclHeaderInfluence) {
  // `x` is constrained by the header pattern; using it at two types pulls
  // the header into the component.
  std::string Src = "let f x = (x + 1, x ^ \"s\")";
  Program P = parse(Src);
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  EXPECT_TRUE(S.DeclHeaderInfluence) << S.render();
}

TEST(SliceTest, OccursCheckMarksCyclic) {
  std::string Src = "let rec f x = f";
  Program P = parse(Src);
  ErrorSlice S = slice(P);
  if (S.Valid) {
    EXPECT_TRUE(S.Cyclic);
  }
}

//===----------------------------------------------------------------------===//
// Corpus-wide properties (the mutated-student-program corpus)
//===----------------------------------------------------------------------===//

TEST(SliceCorpusTest, SliceRankedSearchMatchesPlain) {
  // On every corpus file, a slice-ranked search makes the same oracle
  // calls and finds the same suggestions as a plain one; the slice only
  // reorders them through the ranker's in-slice boost.
  CorpusOptions CO;
  CO.Scale = 0.3;
  Corpus C = generateCorpus(CO);
  ASSERT_FALSE(C.Analyzed.empty());

  size_t SlicedFiles = 0;
  for (const CorpusFile &F : C.Analyzed) {
    SeminalReport RP = runSeminalOnSource(F.Source, allSuggestions(false));
    SeminalReport RR = runSeminalOnSource(F.Source, allSuggestions(true));
    EXPECT_EQ(RR.OracleCalls, RP.OracleCalls) << F.Source;
    EXPECT_EQ(renderedSuggestions(RR), renderedSuggestions(RP)) << F.Source;
    if (RR.Slice) {
      ++SlicedFiles;
      EXPECT_EQ(ancestorPair(RR.Slice->Core), "") << F.Source;
    }
  }
  EXPECT_GT(SlicedFiles, 0u);
}

TEST(SliceCorpusTest, InSliceMarksSuggestionsAtCoreNodes) {
  // The searcher stamps a suggestion in-slice when the node it changed is
  // one of the core's nodes. Outside triage the changed node sits at its
  // own path, so the stamp agrees with the core's paths exactly; inside
  // triage a node can stand at a core path without being that node (a
  // cloned scrutinee), so there the stamp only implies the path.
  CorpusOptions CO;
  CO.Scale = 0.2;
  Corpus C = generateCorpus(CO);

  size_t Stamped = 0;
  for (const CorpusFile &F : C.Analyzed) {
    SeminalReport R = runSeminalOnSource(F.Source, allSuggestions(true));
    for (const Suggestion &S : R.Suggestions) {
      bool AtCorePath = R.Slice && std::find(R.Slice->Core.begin(),
                                             R.Slice->Core.end(),
                                             S.Path) != R.Slice->Core.end();
      if (S.InSlice)
        ++Stamped;
      if (S.InSlice || (!S.ViaTriage && S.Original)) {
        EXPECT_EQ(S.InSlice, AtCorePath)
            << F.Source << "\nsuggestion at " << S.Path.str() << ": "
            << S.Description;
      }
    }
  }
  EXPECT_GT(Stamped, 0u);
}

TEST(SliceTest, TriageCloneAtACorePathIsNotInSlice) {
  // Match triage's phase 1 searches a clone of the scrutinee installed at
  // the scrutinee's own path. The clone is not a core node, so a
  // suggestion on it is not in the slice even where its path is a core
  // path; comparing paths instead would boost it.
  const char *Src = "let f a =\n"
                    "  match (a + \"x\", a) with\n"
                    "    (_, 0) -> 1 + true\n"
                    "  | _ -> 2 + \"y\"\n";
  SeminalReport R = runSeminalOnSource(Src, allSuggestions(true));
  ASSERT_TRUE(R.Slice && R.Slice->Valid);
  size_t AtCorePaths = 0;
  for (const Suggestion &S : R.Suggestions) {
    if (std::find(R.Slice->Core.begin(), R.Slice->Core.end(), S.Path) ==
        R.Slice->Core.end())
      continue;
    ++AtCorePaths;
    EXPECT_TRUE(S.ViaTriage) << S.Path.str() << ": " << S.Description;
    EXPECT_FALSE(S.InSlice) << S.Path.str() << ": " << S.Description;
  }
  EXPECT_GT(AtCorePaths, 0u);
}

TEST(SliceCorpusTest, TopSuggestionsRootInTheSlice) {
  // Soundness seen from the ranking side: an untriaged suggestion's node
  // passed the real removal probe, so whenever a slice exists its subtree
  // must intersect the influence set (a subtree disjoint from it cannot
  // contain the fix).
  CorpusOptions CO;
  CO.Scale = 0.2;
  Corpus C = generateCorpus(CO);

  size_t Checked = 0;
  for (const CorpusFile &F : C.Analyzed) {
    SeminalOptions Opts;
    Opts.Search.ComputeSlice = true;
    SeminalReport R = runSeminalOnSource(F.Source, Opts);
    if (!R.Slice || !R.Slice->Valid)
      continue;
    for (const Suggestion &S : R.Suggestions) {
      if (S.ViaTriage || S.Kind == ChangeKind::PatternFix)
        continue; // Triage rewrites the context; the premise is gone.
      bool Intersects = false;
      for (const NodePath &Q : R.Slice->Influence) {
        bool Within = S.Path.Steps.size() <= Q.Steps.size() &&
                      std::equal(S.Path.Steps.begin(), S.Path.Steps.end(),
                                 Q.Steps.begin());
        if (Within) {
          Intersects = true;
          break;
        }
      }
      ++Checked;
      EXPECT_TRUE(Intersects)
          << F.Source << "\nsuggestion at " << S.Path.str() << ": "
          << S.Description << "\n" << R.Slice->render();
    }
  }
  EXPECT_GT(Checked, 0u);
}

} // namespace
