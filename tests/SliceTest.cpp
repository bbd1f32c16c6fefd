//===- SliceTest.cpp - Tests for constraint-provenance error slicing -------==//
//
// Covers the three properties DESIGN.md section 9 promises:
//
//   * soundness  -- the change behind every top-ranked suggestion is rooted
//     at a node the slice did not rule out (corpus-wide),
//   * minimality -- on hand-written programs the minimized core is exactly
//     the jointly-clashing nodes, not the whole declaration,
//   * identity   -- slice-guided search returns the bit-identical ranked
//     suggestion list as unguided search (corpus-wide; the fuzz variant
//     lives in FuzzTest.cpp).
//
// Also pins the UnifyResult rollback fix: a failed unification must not
// leak partial bindings into rendered diagnostics.
//
//===----------------------------------------------------------------------===//

#include "analysis/Slice.h"
#include "analysis/SliceGuide.h"
#include "core/Message.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "minicaml/Infer.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>

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
  EXPECT_TRUE(S.CoreWitnessOk);
  ASSERT_EQ(S.Core.size(), 1u);
  // The anchor is the deepest node enclosing the error span: the
  // offending variable itself.
  EXPECT_NE(S.render().find("anchor:"), std::string::npos);
}

TEST(SliceTest, AnchoredSliceKeepsGuidedSearchIdentical) {
  // Non-unification failure (unbound name) in a declaration with plenty
  // of innocent structure: the anchored slice must prune without
  // changing a single suggestion.
  const char *Src = "let a = 1 + 2\n"
                    "let b = (a * 3, [a; 4], \"tag\")\n"
                    "let c = (a + 1, nosuchname 5, [2; 3])\n";
  SeminalOptions Ranked;
  Ranked.Search.ComputeSlice = true;
  SeminalOptions Guided;
  Guided.Search.SliceGuided = true;
  SeminalReport RR = runSeminalOnSource(Src, Ranked);
  SeminalReport RG = runSeminalOnSource(Src, Guided);
  ASSERT_TRUE(RG.Slice.has_value());
  EXPECT_TRUE(RG.Slice->SpanAnchored);
  EXPECT_LE(RG.OracleCalls, RR.OracleCalls);
  ASSERT_EQ(RG.Suggestions.size(), RR.Suggestions.size());
  MessageOptions MO;
  for (size_t I = 0; I < RG.Suggestions.size(); ++I)
    EXPECT_EQ(renderSuggestion(RG.Suggestions[I], MO),
              renderSuggestion(RR.Suggestions[I], MO));
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
  for (const NodePath &A : S.Core)
    for (const NodePath &B : S.Core) {
      if (A == B)
        continue;
      bool Prefix = A.Steps.size() < B.Steps.size() &&
                    std::equal(A.Steps.begin(), A.Steps.end(), B.Steps.begin());
      EXPECT_FALSE(Prefix) << A.str() << " is an ancestor of " << B.str();
    }
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

TEST(SliceTest, MinimizeOffLeavesCoreEqualInfluence) {
  Program P = parse("let x = 1 + \"two\"");
  SliceOptions Opts;
  Opts.Minimize = false;
  ErrorSlice S = slice(P, Opts);
  ASSERT_TRUE(S.Valid);
  EXPECT_EQ(S.Core.size(), S.Influence.size());
  EXPECT_EQ(S.MinimizeChecks, 0u);
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
// SliceGuide invariants
//===----------------------------------------------------------------------===//

TEST(SliceTest, GuideNeverDoomsInfluenceNodes) {
  std::string Src = "let f =\n"
                    "  let pad = \"x\" in\n"
                    "  let n = 3 in\n"
                    "  n + pad";
  Program P = parse(Src);
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  SliceGuide G(P, S);
  EXPECT_GT(G.influenceSize(), 0u);
  for (const NodePath &Path : S.Influence) {
    const Expr *E = resolvePath(P, Path);
    ASSERT_NE(E, nullptr);
    EXPECT_FALSE(G.subtreeDoomed(*E)) << Path.str();
  }
  // The declaration root contains the whole influence set; never doomed.
  ASSERT_FALSE(P.Decls.empty());
  EXPECT_FALSE(G.subtreeDoomed(*P.Decls[S.DeclIndex]->Rhs));
}

//===----------------------------------------------------------------------===//
// Corpus-wide properties (the mutated-student-program corpus)
//===----------------------------------------------------------------------===//

TEST(SliceCorpusTest, GuidedSearchIsIdenticalAndCheaper) {
  // On every corpus file, slice-guided search must reproduce the
  // slice-ranked suggestion list exactly while never spending more
  // logical oracle calls; across the corpus it must spend strictly fewer.
  CorpusOptions CO;
  CO.Scale = 0.3;
  Corpus C = generateCorpus(CO);
  ASSERT_FALSE(C.Analyzed.empty());

  size_t RankedCalls = 0, GuidedCalls = 0, SlicedFiles = 0;
  for (const CorpusFile &F : C.Analyzed) {
    SeminalOptions Ranked;
    Ranked.Search.ComputeSlice = true;
    SeminalOptions Guided = Ranked;
    Guided.Search.SliceGuided = true;

    SeminalReport RR = runSeminalOnSource(F.Source, Ranked);
    SeminalReport RG = runSeminalOnSource(F.Source, Guided);

    EXPECT_LE(RG.OracleCalls, RR.OracleCalls) << F.Source;
    ASSERT_EQ(RG.Suggestions.size(), RR.Suggestions.size()) << F.Source;
    for (size_t J = 0; J < RR.Suggestions.size(); ++J)
      ASSERT_EQ(renderSuggestion(RG.Suggestions[J]),
                renderSuggestion(RR.Suggestions[J]))
          << F.Source << "\nrank " << J;
    RankedCalls += RR.OracleCalls;
    GuidedCalls += RG.OracleCalls;
    if (RG.Slice)
      ++SlicedFiles;
  }
  EXPECT_GT(SlicedFiles, 0u);
  EXPECT_LT(GuidedCalls, RankedCalls);
}

TEST(SliceCorpusTest, TopSuggestionsRootInTheSlice) {
  // Soundness seen from the ranking side: an untriaged suggestion's node
  // passed the real removal probe, so whenever a slice exists its subtree
  // must intersect the influence set (otherwise the guide would have
  // been entitled to skip it).
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

TEST(SliceTest, GuideDoomsDisjointSubtree) {
  // `let a = 1 in` is disjoint from the string/int clash below it.
  std::string Src = "let f =\n"
                    "  let a = true in\n"
                    "  1 + \"two\"";
  Program P = parse(Src);
  ErrorSlice S = slice(P);
  ASSERT_TRUE(S.Valid);
  SliceGuide G(P, S);
  // Find the `true` literal: it must be doomable.
  Expr *Root = P.Decls[S.DeclIndex]->Rhs.get();
  ASSERT_NE(Root, nullptr);
  ASSERT_EQ(Root->kind(), Expr::Kind::Let);
  Expr *Bound = Root->child(0);
  EXPECT_TRUE(G.subtreeDoomed(*Bound)) << S.render();
  EXPECT_EQ(G.PrunedSubtrees, 0u) << "queries must not bump counters";
}

} // namespace
