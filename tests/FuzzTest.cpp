//===- FuzzTest.cpp - Randomized property tests ----------------------------==//
//
// Properties the system must hold on *arbitrary* inputs, not just the
// paper's examples:
//
//   * the printer round-trips every tree it can print;
//   * the type checker is total: it accepts or reports a located error,
//     never crashes, and is deterministic;
//   * the searcher is sound (untriaged suggestions produce well-typed
//     programs), restores its working copy, and respects its budget even
//     against adversarial oracles.
//
//===----------------------------------------------------------------------===//

#include "SuggestionTestUtil.h"
#include "core/Oracle.h"
#include "core/Seminal.h"
#include "corpus/RandomAst.h"
#include "minicaml/Infer.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>

using namespace seminal;
using namespace seminal::caml;

namespace {

//===----------------------------------------------------------------------===//
// Failure reporting: seed + minimized counterexample
//===----------------------------------------------------------------------===//
//
// A failing property on a random program is only actionable if it can be
// reproduced and read. Every fuzz loop below seeds its generator per
// iteration, so a failure message carries the exact seed; and before
// reporting, the failing program is shrunk greedily -- whole declarations
// dropped, then subtrees replaced by their own children -- as long as the
// failure predicate keeps holding.

/// Greedily minimizes \p P while \p StillFails(P) holds. Two moves, run
/// to fixpoint: drop a whole declaration; hoist a child subtree over its
/// parent. Bounded, deterministic, and predicate-agnostic.
Program minimizeProgram(Program P,
                        const std::function<bool(const Program &)> &StillFails) {
  bool Shrunk = true;
  int Budget = 2000; // predicate evaluations; plenty for test-sized trees
  while (Shrunk && Budget > 0) {
    Shrunk = false;

    // Move 1: drop declarations (later ones first -- they depend on
    // earlier ones, so they are more likely to be removable).
    for (size_t I = P.Decls.size(); I-- > 0 && Budget > 0;) {
      Program Candidate = P;
      Candidate.Decls.erase(Candidate.Decls.begin() + long(I));
      --Budget;
      if (!Candidate.Decls.empty() && StillFails(Candidate)) {
        P = std::move(Candidate);
        Shrunk = true;
      }
    }

    // Move 2: replace each node with each of its children (preorder;
    // restart the scan after any success since paths shift).
    for (unsigned D = 0; D < P.Decls.size() && Budget > 0; ++D) {
      std::vector<NodePath> Work;
      if (P.Decls[D]->Rhs)
        Work.push_back(NodePath(D));
      while (!Work.empty() && Budget > 0) {
        NodePath Path = Work.back();
        Work.pop_back();
        const Expr *Node = resolvePath(P, Path);
        if (!Node)
          continue;
        bool Replaced = false;
        for (unsigned C = 0; C < Node->numChildren() && Budget > 0; ++C) {
          Program Candidate = P;
          ExprPtr Child = Node->child(C)->clone();
          replaceAtPath(editDecl(Candidate, D), Path, std::move(Child));
          --Budget;
          if (StillFails(Candidate)) {
            P = std::move(Candidate);
            Shrunk = true;
            Replaced = true;
            // Re-examine the same path: the hoisted child may shrink
            // further.
            Work.push_back(Path);
            break;
          }
        }
        if (!Replaced)
          for (unsigned C = 0; C < Node->numChildren(); ++C)
            Work.push_back(Path.descend(C));
      }
    }
  }
  return P;
}

/// Renders a reproducible failure report for ASSERT/EXPECT messages.
std::string fuzzFailure(uint64_t Seed, const Program &Original,
                        const std::function<bool(const Program &)> &StillFails) {
  std::string Out = "\n--- fuzz failure ---\nseed: " + std::to_string(Seed) +
                    "\noriginal program:\n" + printProgram(Original);
  Program Min = minimizeProgram(Original, StillFails);
  Out += "minimized program (" + std::to_string(Min.Decls.size()) +
         " decls):\n" + printProgram(Min);
  Out += "--- end fuzz failure ---";
  return Out;
}

//===----------------------------------------------------------------------===//
// Printer round-trip
//===----------------------------------------------------------------------===//

class PrinterFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PrinterFuzz, RandomExprsRoundTrip) {
  for (int I = 0; I < 200; ++I) {
    uint64_t Seed = uint64_t(GetParam()) * 7919 + 13 + uint64_t(I) * 1000003;
    Rng R(Seed);
    ExprPtr E = randomExpr(R, 4);
    std::string Printed = printExpr(*E);
    ParseExprResult Reparsed = parseExpression(Printed);
    ASSERT_TRUE(Reparsed.ok())
        << "printed expr failed to parse (seed " << Seed
        << "): " << Printed << "\n("
        << (Reparsed.Error ? Reparsed.Error->str() : "") << ")";
    EXPECT_TRUE(E->equals(*Reparsed.E))
        << "round trip changed structure (seed " << Seed << "):\n  "
        << Printed << "\n  vs\n  " << printExpr(*Reparsed.E);
  }
}

TEST_P(PrinterFuzz, RandomProgramsRoundTrip) {
  auto FailsRoundTrip = [](const Program &P) {
    std::string Printed = printProgram(P);
    ParseResult Reparsed = parseProgram(Printed);
    return !Reparsed.ok() || !P.equals(*Reparsed.Prog);
  };
  for (int I = 0; I < 50; ++I) {
    uint64_t Seed = uint64_t(GetParam()) * 104729 + 7 + uint64_t(I) * 999983;
    Rng R(Seed);
    Program P = randomProgram(R, 4, 3);
    ASSERT_FALSE(FailsRoundTrip(P)) << fuzzFailure(Seed, P, FailsRoundTrip);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrinterFuzz, ::testing::Range(0, 8));

//===----------------------------------------------------------------------===//
// Checker totality and determinism
//===----------------------------------------------------------------------===//

class CheckerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CheckerFuzz, TotalAndDeterministic) {
  auto NonDeterministic = [](const Program &P) {
    TypecheckResult A = typecheckProgram(P);
    TypecheckResult B = typecheckProgram(P);
    if (A.ok() != B.ok())
      return true;
    return !A.ok() && (A.Error->Message.empty() ||
                       A.Error->Message != B.Error->Message);
  };
  for (int I = 0; I < 100; ++I) {
    uint64_t Seed = uint64_t(GetParam()) * 31337 + 5 + uint64_t(I) * 999961;
    Rng R(Seed);
    Program P = randomProgram(R, 4, 3);
    EXPECT_FALSE(NonDeterministic(P)) << fuzzFailure(Seed, P,
                                                     NonDeterministic);
  }
}

TEST_P(CheckerFuzz, CloneChecksIdentically) {
  Rng R(uint64_t(GetParam()) * 271 + 11);
  for (int I = 0; I < 60; ++I) {
    Program P = randomProgram(R, 3, 3);
    Program Q;
    for (const DeclPtr &D : P.Decls)
      Q.Decls.push_back(D->clone());
    EXPECT_EQ(typecheckProgram(P).ok(), typecheckProgram(Q).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerFuzz, ::testing::Range(0, 6));

//===----------------------------------------------------------------------===//
// Searcher soundness and robustness
//===----------------------------------------------------------------------===//

class SearcherFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SearcherFuzz, SoundOnRandomIllTypedPrograms) {
  // A program "fails" if the search emits an untriaged suggestion whose
  // applied form does not type-check. Used both as the property under
  // test and as the predicate driving counterexample minimization.
  auto HasUnsoundSuggestion = [](const Program &P) {
    if (typecheckProgram(P).ok())
      return false;
    SeminalOptions Opts;
    Opts.Search.MaxOracleCalls = 3000;
    SeminalReport Report = runSeminal(P, Opts);
    for (const auto &S : Report.Suggestions) {
      if (S.ViaTriage)
        continue;
      if (!typecheckProgram(appliedProgram(P, S)).ok())
        return true;
    }
    return false;
  };

  int Examined = 0;
  for (int I = 0; I < 200 && Examined < 25; ++I) {
    uint64_t Seed = uint64_t(GetParam()) * 65537 + 3 + uint64_t(I) * 999979;
    Rng R(Seed);
    Program P = randomProgram(R, 3, 3);
    if (typecheckProgram(P).ok())
      continue;
    ++Examined;
    SeminalOptions Opts;
    Opts.Search.MaxOracleCalls = 3000;
    SeminalReport Report = runSeminal(P, Opts);
    for (const auto &S : Report.Suggestions) {
      if (S.ViaTriage)
        continue;
      TypecheckResult TR = typecheckProgram(appliedProgram(P, S));
      EXPECT_TRUE(TR.ok())
          << "unsound suggestion: " << renderSuggestion(S)
          << fuzzFailure(Seed, P, HasUnsoundSuggestion);
    }
  }
  EXPECT_GT(Examined, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearcherFuzz, ::testing::Range(0, 4));

//===----------------------------------------------------------------------===//
// Adversarial oracles
//===----------------------------------------------------------------------===//

/// An oracle that answers according to a script, ignoring the program.
class ScriptedOracle : public Oracle {
public:
  enum class Mode { AlwaysNo, AlwaysYes, Random };
  explicit ScriptedOracle(Mode M, uint64_t Seed = 1) : TheMode(M), R(Seed) {}

  std::optional<TypeError>
  conventionalError(const Program &Prog) override {
    return std::nullopt;
  }

protected:
  bool typecheckImpl(const Program &Prog) override {
    switch (TheMode) {
    case Mode::AlwaysNo:
      return false;
    case Mode::AlwaysYes:
      return true;
    case Mode::Random:
      return R.chance(0.5);
    }
    return false;
  }
  std::optional<std::string> typeOfNodeImpl(const Program &Prog,
                                            const Expr *Node) override {
    return std::nullopt;
  }

private:
  Mode TheMode;
  Rng R;
};

TEST(AdversarialOracleTest, AlwaysYesBypassesSearch) {
  ScriptedOracle O(ScriptedOracle::Mode::AlwaysYes);
  SearchOptions Opts;
  Searcher S(O, Opts);
  ParseResult P = parseProgram("let x = 1 + true");
  SearchOutput Out = S.run(*P.Prog);
  EXPECT_TRUE(Out.InputTypechecks);
  EXPECT_TRUE(Out.Suggestions.empty());
}

TEST(AdversarialOracleTest, AlwaysNoTerminatesWithoutSuggestions) {
  ScriptedOracle O(ScriptedOracle::Mode::AlwaysNo);
  SearchOptions Opts;
  Opts.MaxOracleCalls = 2000;
  Searcher S(O, Opts);
  ParseResult P = parseProgram("let f x = x + 1\nlet y = f 1 2");
  SearchOutput Out = S.run(*P.Prog);
  // Nothing ever "type-checks", so no prefix is found failing-then-
  // passing and no change can succeed; the search must end cleanly.
  EXPECT_TRUE(Out.Suggestions.empty());
}

class RandomOracleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomOracleFuzz, RandomOracleNeverBreaksTheSearcher) {
  ScriptedOracle O(ScriptedOracle::Mode::Random, uint64_t(GetParam()));
  SearchOptions Opts;
  Opts.MaxOracleCalls = 500;
  Searcher S(O, Opts);
  ParseResult P = parseProgram(
      "let go y =\n"
      "  let a = 3 + true in\n"
      "  match [a] with [] -> y | b :: t -> b + \"s\"\n");
  SearchOutput Out = S.run(*P.Prog);
  EXPECT_LE(O.logicalCalls(), Opts.MaxOracleCalls + 2);
  // Whatever nonsense the oracle answered, suggestions carry coherent
  // payloads.
  for (const auto &S2 : Out.Suggestions) {
    EXPECT_FALSE(S2.Description.empty());
    EXPECT_LT(S2.Path.DeclIndex, P.Prog->Decls.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOracleFuzz, ::testing::Range(0, 6));

//===----------------------------------------------------------------------===//
// The slice explains, it does not search
//===----------------------------------------------------------------------===//

class SliceRankedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SliceRankedFuzz, SliceRankedSearchMatchesPlainOnRandomPrograms) {
  // Computing the slice may only reorder suggestions (the ranker's
  // in-slice boost): a slice-ranked run makes the same oracle calls and
  // finds the same suggestions as a plain run, budget cutoffs included.
  int Examined = 0;
  for (int I = 0; I < 200 && Examined < 25; ++I) {
    uint64_t Seed = uint64_t(GetParam()) * 92821 + 17 + uint64_t(I) * 999959;
    Rng R(Seed);
    Program P = randomProgram(R, 3, 3);
    if (typecheckProgram(P).ok())
      continue;
    ++Examined;

    SeminalOptions Plain;
    Plain.Search.MaxOracleCalls = 3000;
    Plain.MaxSuggestions = std::numeric_limits<size_t>::max();
    SeminalOptions Ranked = Plain;
    Ranked.Search.ComputeSlice = true;

    SeminalReport RP = runSeminal(P, Plain);
    SeminalReport RR = runSeminal(P, Ranked);

    EXPECT_EQ(RR.OracleCalls, RP.OracleCalls) << "seed " << Seed;
    EXPECT_EQ(RR.BudgetExhausted, RP.BudgetExhausted) << "seed " << Seed;
    EXPECT_EQ(renderedSuggestions(RR), renderedSuggestions(RP))
        << "seed " << Seed << "\n" << printProgram(P);
    if (RR.Slice) {
      EXPECT_EQ(ancestorPair(RR.Slice->Core), "") << "seed " << Seed;
    }
  }
  EXPECT_GT(Examined, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceRankedFuzz, ::testing::Range(0, 4));

TEST(BudgetTest, SearchIsIdempotentOnWorkingCopy) {
  // Running the search twice on the same program yields identical
  // suggestion sets: the in-place editing restores everything.
  std::string Src = "let go y =\n"
                    "  let a = 3 + true in\n"
                    "  let b = 4 + \"hi\" in\n"
                    "  y\n";
  SeminalReport R1 = runSeminalOnSource(Src);
  SeminalReport R2 = runSeminalOnSource(Src);
  ASSERT_EQ(R1.Suggestions.size(), R2.Suggestions.size());
  for (size_t I = 0; I < R1.Suggestions.size(); ++I) {
    EXPECT_EQ(renderSuggestion(R1.Suggestions[I]),
              renderSuggestion(R2.Suggestions[I]));
  }
  EXPECT_EQ(R1.OracleCalls, R2.OracleCalls);
}

} // namespace
