//===- AccelTest.cpp - Oracle acceleration equivalence tests ---------------==//
//
// The acceleration layer must be invisible: any combination of prefix
// checkpointing and the conventional-verdict memo has to reproduce the
// plain oracle's searches bit for bit -- same suggestions in the same
// ranked order, same logical-call totals -- while doing strictly less
// inference. These tests pin that contract at three levels: the
// InferenceCheckpoint primitive (rollback correctness), the
// CheckpointedOracle (memo and checkpoint accounting), and whole
// runSeminal searches across every acceleration configuration.
//
//===----------------------------------------------------------------------===//

#include "core/CheckpointedOracle.h"
#include "core/Seminal.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace seminal;
using namespace seminal::caml;

namespace {

Program parse(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << Source;
  return std::move(*R.Prog);
}

/// The searcher scenarios from SearcherTest.cpp (paper examples, triage
/// batteries, mutated fragments) plus a multi-error triage case; the
/// equivalence tests replay each under every acceleration configuration.
const char *ScenarioSources[] = {
    // Paper examples.
    "let map2 f aList bList =\n"
    "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
    "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
    "let ans = List.filter (fun x -> x == 0) lst\n",
    "let add str lst = if List.mem str lst then lst\n"
    "                  else str :: lst\n"
    "let vList1 = [\"a\"; \"b\"]\n"
    "let s = \"c\"\n"
    "let out = add vList1 s\n",
    "let e1 x = x ^ \"!\"\nlet e2 = \"s\"\nlet t = if e1 e2 then 1 else 2\n",
    "let f y =\n"
    "  let x = \"oops\" in\n"
    "  (x + 1) + (x + 2) + (x + 3) + (x + 4)\n",
    "let f x = print x; x + 1\n",
    // Localization with later broken declarations.
    "let a = 1\nlet b = a + true\nlet c = 1 + \"x\"",
    // Triage: multiple independent errors.
    "let go y =\n"
    "  let x = 3 + true in\n"
    "  let z = y + 1 in\n"
    "  let w = 4 + \"hi\" in\n"
    "  z\n",
    "let f x y =\n"
    "  let n = List.length y in\n"
    "  match (x, y) with\n"
    "    (0, []) -> []\n"
    "  | (m, []) -> m\n"
    "  | (_, 5) -> 5 + \"hi\"\n",
    "let f a =\n"
    "  match (a + \"x\", a) with\n"
    "    (_, 0) -> 1 + true\n"
    "  | _ -> 2 + \"y\"\n",
    // Soundness-battery fragments.
    "let x = 1 + \"two\"",
    "let f (x, y) = x + y\nlet z = f 1 2",
    "let f x y = x + y\nlet z = f (1, 2)",
    "let x = [1, 2, 3]\nlet y = List.map (fun v -> v + 1) x",
    "let r = ref 0\nlet y = r + 1",
    "let l = 1 :: 2",
    "let f x = x ^ \"!\"\nlet y = f 3",
    "let swap (a, b) = (b, a)\nlet p = swap 1 2",
    "let f a b c = a + b + c\nlet x = f 1 2 + 3",
    "let x = (1, 2)\nlet y = fst x + snd x + x",
};

/// Byte-exact fingerprint of a ranked report: everything a suggestion
/// carries that is visible to ranking, rendering, or callers.
std::string fingerprint(const SeminalReport &R) {
  std::string Out;
  Out += "typechecks=" + std::to_string(R.InputTypechecks);
  Out += " failing=" +
         (R.FailingDeclIndex ? std::to_string(*R.FailingDeclIndex)
                             : std::string("none"));
  Out += " budget=" + std::to_string(R.BudgetExhausted);
  Out += "\n";
  for (const Suggestion &S : R.Suggestions) {
    Out += "[" + std::to_string(int(S.Kind)) + "/" + S.Path.str() + "/p" +
           std::to_string(S.Priority) + "/t" +
           std::to_string(S.TriageRemovals) + "] ";
    if (S.Original)
      Out += printExpr(*S.Original);
    Out += " => ";
    if (S.Replacement)
      Out += printExpr(*S.Replacement);
    Out += " :: " + S.ReplacementType.value_or("-");
    Out += " :: " + S.Description;
    Out += " :: " + S.PatternBefore + "/" + S.PatternAfter;
    Out += " :: ctx " + S.ContextAfter;
    Out += "\n";
    Out += renderSuggestion(S) + "\n";
  }
  return Out;
}

SeminalOptions withAccel(bool Checkpoint, bool VerdictCache) {
  SeminalOptions Opts;
  Opts.Search.Accel.Checkpoint = Checkpoint;
  Opts.Search.Accel.VerdictCache = VerdictCache;
  return Opts;
}

//===----------------------------------------------------------------------===//
// InferenceCheckpoint: rollback correctness
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, MatchesFullInferenceOnEveryPrefix) {
  for (const char *Src : ScenarioSources) {
    Program P = parse(Src);
    for (unsigned K = 0; K < P.Decls.size(); ++K) {
      if (P.Decls[K]->kind() != Decl::Kind::Let)
        continue;
      // Full-inference ground truth for "first K decls + decl K".
      Program Slice;
      for (unsigned I = 0; I <= K; ++I)
        Slice.Decls.push_back(P.Decls[I]->clone());
      bool Expected = typecheckProgram(Slice).ok();

      auto CP = InferenceCheckpoint::create(P, K);
      if (!CP) {
        // The prefix itself fails; create() must refuse exactly then.
        Program Prefix;
        for (unsigned I = 0; I < K; ++I)
          Prefix.Decls.push_back(P.Decls[I]->clone());
        EXPECT_FALSE(typecheckProgram(Prefix).ok()) << Src;
        continue;
      }
      // Ask three times: rollback must keep the verdict stable.
      for (int Round = 0; Round < 3; ++Round)
        EXPECT_EQ(CP->checkDecl(*P.Decls[K]).ok(), Expected)
            << Src << "\nprefix " << K << " round " << Round;
    }
  }
}

TEST(CheckpointTest, ValueRestrictionStateRollsBack) {
  // `r : '_a list ref` is weakly polymorphic; checking `r := [1]` pins
  // '_a to int *within that query*. Rollback must unpin it, or the
  // subsequent string assignment would wrongly fail.
  Program P = parse("let r = ref []\nlet u = r := [1]");
  auto CP = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(CP, nullptr);
  Program IntUse = parse("let u = r := [1]");
  Program StrUse = parse("let v = r := [\"s\"]");
  EXPECT_TRUE(CP->checkDecl(*IntUse.Decls[0]).ok());
  EXPECT_TRUE(CP->checkDecl(*StrUse.Decls[0]).ok())
      << "int pin leaked through the checkpoint";
  EXPECT_TRUE(CP->checkDecl(*IntUse.Decls[0]).ok());
  // Both at once genuinely conflict; the checkpoint must still say no.
  Program Both = parse("let w = (r := [1]; r := [\"s\"])");
  EXPECT_FALSE(CP->checkDecl(*Both.Decls[0]).ok());
  EXPECT_TRUE(CP->checkDecl(*StrUse.Decls[0]).ok());
}

TEST(CheckpointTest, GeneralizationSurvivesFailedQueries) {
  // A failing query must not corrupt the polymorphism of prefix bindings.
  Program P = parse("let id x = x\nlet a = id 1");
  auto CP = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(CP, nullptr);
  Program Bad = parse("let c = id 1 ^ \"x\"");
  Program IntUse = parse("let a = id 1 + 2");
  Program StrUse = parse("let b = id \"s\" ^ \"t\"");
  EXPECT_FALSE(CP->checkDecl(*Bad.Decls[0]).ok());
  EXPECT_TRUE(CP->checkDecl(*IntUse.Decls[0]).ok());
  EXPECT_TRUE(CP->checkDecl(*StrUse.Decls[0]).ok());
}

TEST(CheckpointTest, ArenaDoesNotGrowAcrossQueries) {
  Program P = parse("let f x y = x + y\nlet z = f 1");
  auto CP = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(CP, nullptr);
  TypecheckResult First = CP->checkDecl(*P.Decls[1]);
  for (int I = 0; I < 100; ++I) {
    TypecheckResult R = CP->checkDecl(*P.Decls[1]);
    EXPECT_EQ(R.TypesAllocated, First.TypesAllocated)
        << "arena rewind is leaking allocations (round " << I << ")";
  }
}

TEST(CheckpointTest, QueryNodeTypeMatchesFullInference) {
  Program P = parse("let one = 1\nlet f x = x + one");
  const Expr *Node = P.Decls[1]->Rhs.get();
  TypecheckOptions Opts;
  Opts.QueryNode = Node;
  TypecheckResult Full = typecheckProgram(P, Opts);
  ASSERT_TRUE(Full.ok());
  ASSERT_TRUE(Full.QueriedType.has_value());

  auto CP = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(CP, nullptr);
  TypecheckResult Inc = CP->checkDecl(*P.Decls[1], Opts);
  ASSERT_TRUE(Inc.ok());
  EXPECT_EQ(Inc.QueriedType, Full.QueriedType);
}

TEST(CheckpointTest, QueryDeclAnswersLikeCheckDeclWithoutAMessage) {
  Program P = parse("let one = 1\nlet f x = x + one\nlet g = f \"s\"");
  auto CP = InferenceCheckpoint::create(P, 2);
  ASSERT_NE(CP, nullptr);

  // A failure keeps its kind and span; nothing is rendered for it.
  TypecheckResult Full = CP->checkDecl(*P.Decls[2]);
  TypecheckResult Quiet = CP->queryDecl(*P.Decls[2]);
  ASSERT_FALSE(Full.ok());
  ASSERT_FALSE(Quiet.ok());
  EXPECT_FALSE(Full.Error->Message.empty());
  EXPECT_EQ(Quiet.Error->TheKind, Full.Error->TheKind);
  EXPECT_EQ(Quiet.Error->Span.Begin.Offset, Full.Error->Span.Begin.Offset);
  EXPECT_TRUE(Quiet.Error->Message.empty());
  EXPECT_TRUE(Quiet.Error->ActualType.empty());
  EXPECT_EQ(Quiet.TypesAllocated, Full.TypesAllocated);

  // A success still renders the queried node's type.
  const Expr *Node = P.Decls[1]->Rhs.get();
  auto Prefix = InferenceCheckpoint::create(P, 1);
  ASSERT_NE(Prefix, nullptr);
  TypecheckOptions Opts;
  Opts.QueryNode = Node;
  TypecheckResult WithType = Prefix->checkDecl(*P.Decls[1], Opts);
  TypecheckResult Queried = Prefix->queryDecl(*P.Decls[1], Node);
  ASSERT_TRUE(Queried.ok());
  EXPECT_EQ(Queried.QueriedType, WithType.QueriedType);
  EXPECT_EQ(Queried.TypesAllocated, WithType.TypesAllocated);

  // The rendering query after the quiet one still gets its message.
  EXPECT_EQ(CP->checkDecl(*P.Decls[2]).Error->Message, Full.Error->Message);
}

//===----------------------------------------------------------------------===//
// CheckpointedOracle: accounting
//===----------------------------------------------------------------------===//

TEST(CheckpointedOracleTest, CacheHitsKeepLogicalCallsButSkipInference) {
  // The conventional-verdict memo: the searcher's opening whole-program
  // probe asks exactly what conventionalError() just inferred.
  Program P = parse("let a = 1\nlet b = a + true");
  CheckpointedOracle O;
  ASSERT_TRUE(O.conventionalError(P).has_value());
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(O.typechecks(P));
  EXPECT_EQ(O.logicalCalls(), 3u);
  EXPECT_EQ(O.counters().CacheHits, 3u);
  EXPECT_EQ(O.inferenceRuns(), 0u);
  // A structurally equal deep copy hits too; a different program does
  // not.
  Program Copy;
  for (const DeclPtr &D : P.Decls)
    Copy.Decls.push_back(D->clone());
  EXPECT_FALSE(O.typechecks(Copy));
  EXPECT_EQ(O.counters().CacheHits, 4u);
  EXPECT_TRUE(O.typechecks(parse("let a = 1\nlet b = a + 1")));
  EXPECT_EQ(O.counters().CacheHits, 4u);
  EXPECT_EQ(O.inferenceRuns(), 1u);

  // Seeded calls go straight to the checkpoint: no memo, every call runs
  // inference.
  O.seedPrefix(P, 1);
  EXPECT_FALSE(O.typechecks(P));
  EXPECT_FALSE(O.typechecks(P));
  EXPECT_EQ(O.counters().CacheHits, 4u);
  EXPECT_EQ(O.counters().IncrementalInferences, 2u);
  EXPECT_EQ(O.inferenceRuns(), 3u);

  // Seeding released the memo's program: once the seed is cleared,
  // the same whole-program question runs inference again.
  O.clearPrefix();
  EXPECT_FALSE(O.typechecks(P));
  EXPECT_EQ(O.counters().CacheHits, 4u);
  EXPECT_EQ(O.inferenceRuns(), 4u);

  // With the memo off the opening probe re-infers.
  OracleAccelOptions NoMemo;
  NoMemo.VerdictCache = false;
  CheckpointedOracle Plain(NoMemo);
  ASSERT_TRUE(Plain.conventionalError(P).has_value());
  EXPECT_FALSE(Plain.typechecks(P));
  EXPECT_EQ(Plain.counters().CacheHits, 0u);
  EXPECT_EQ(Plain.inferenceRuns(), 1u);
}

TEST(CheckpointedOracleTest, UnseededFallsBackToFullInference) {
  // Two declarations with no growth history match neither the seed nor
  // the growing-prefix pattern: a plain full inference.
  Program P = parse("let a = 1\nlet x = a + \"two\"");
  CheckpointedOracle O;
  EXPECT_FALSE(O.typechecks(P));
  EXPECT_EQ(O.counters().FullInferences, 1u);
  EXPECT_EQ(O.counters().IncrementalInferences, 0u);
  EXPECT_EQ(O.inferenceRuns(), O.logicalCalls());
}

TEST(CheckpointedOracleTest, LocalizationPatternIsServedIncrementally) {
  // The searcher's prefix-localization loop: ask about prefixes of
  // growing length. Every round should extend the growth environment
  // instead of running whole-program inference.
  Program P = parse("let a = 1\nlet b = a + 1\nlet c = b + 2\n"
                    "let d = c ^ \"s\"");
  CheckpointedOracle O;
  for (unsigned Len = 1; Len <= P.Decls.size(); ++Len) {
    Program Prefix;
    for (unsigned I = 0; I < Len; ++I)
      Prefix.Decls.push_back(P.Decls[I]->clone());
    Program Truth;
    for (unsigned I = 0; I < Len; ++I)
      Truth.Decls.push_back(P.Decls[I]->clone());
    EXPECT_EQ(O.typechecks(Prefix), caml::typecheckProgram(Truth).ok())
        << "prefix length " << Len;
  }
  EXPECT_EQ(O.counters().FullInferences, 0u);
  EXPECT_EQ(O.counters().IncrementalInferences, P.Decls.size());
  // Each round re-checked only the new declaration: 0+1+2+3 skipped.
  EXPECT_EQ(O.counters().DeclInferencesSaved, 0u + 1u + 2u + 3u);
}

TEST(CheckpointTest, ExtendWithCommitsOnSuccessAndRollsBackOnFailure) {
  Program P = parse("let a = 1\nlet b = a + 1\nlet c = b ^ \"s\"\n"
                    "let d = a + 2");
  auto CP = InferenceCheckpoint::create(P, 0);
  ASSERT_TRUE(CP);
  // Committing declarations one at a time tracks full-inference prefix
  // verdicts exactly.
  ASSERT_TRUE(CP->extendWith(*P.Decls[0]));
  EXPECT_EQ(CP->prefixLength(), 1u);
  size_t Allocated = 0;
  ASSERT_TRUE(CP->extendWith(*P.Decls[1], &Allocated));
  EXPECT_GT(Allocated, 0u);
  EXPECT_EQ(CP->prefixLength(), 2u);
  // A failed Let rolls back completely: the prefix is unchanged and the
  // checkpoint keeps answering queries correctly.
  EXPECT_FALSE(CP->extendWith(*P.Decls[2]));
  EXPECT_EQ(CP->prefixLength(), 2u);
  TypecheckResult R = CP->checkDecl(*P.Decls[3]);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(CP->checkDecl(*P.Decls[2]).ok());
  // And the environment can still grow past the failure.
  ASSERT_TRUE(CP->extendWith(*P.Decls[3]));
  EXPECT_EQ(CP->prefixLength(), 3u);
}

TEST(CheckpointedOracleTest, VerdictsMatchPlainOracleEverywhere) {
  for (const char *Src : ScenarioSources) {
    Program P = parse(Src);
    CamlOracle Plain;
    CheckpointedOracle Fast;
    if (P.Decls.size() > 1)
      Fast.seedPrefix(P, unsigned(P.Decls.size() - 1));
    EXPECT_EQ(Fast.typechecks(P), Plain.typechecks(P)) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Whole-search equivalence across acceleration configurations
//===----------------------------------------------------------------------===//

struct AccelConfig {
  const char *Name;
  bool Checkpoint, VerdictCache;
};

const AccelConfig Configs[] = {
    {"checkpoint-only", true, false},
    {"memo-only", false, true},
    {"checkpoint+memo", true, true},
};

TEST(AccelEquivalenceTest, AllConfigsReproduceTheUnacceleratedSearch) {
  for (const char *Src : ScenarioSources) {
    SeminalReport Base = runSeminalOnSource(Src, withAccel(false, false));
    std::string BaseFp = fingerprint(Base);
    EXPECT_EQ(Base.InferenceRuns, Base.OracleCalls) << Src;

    for (const AccelConfig &C : Configs) {
      SeminalReport R =
          runSeminalOnSource(Src, withAccel(C.Checkpoint, C.VerdictCache));
      EXPECT_EQ(fingerprint(R), BaseFp) << C.Name << " on:\n" << Src;
      EXPECT_EQ(R.OracleCalls, Base.OracleCalls)
          << C.Name << " changed the logical-call count on:\n" << Src;
      EXPECT_LE(R.InferenceRuns, R.OracleCalls) << C.Name;
      if (C.VerdictCache || C.Checkpoint) {
        EXPECT_LE(R.InferenceRuns, Base.InferenceRuns) << C.Name;
      }
    }
  }
}

TEST(AccelEquivalenceTest, DefaultConfigDoesStrictlyLessInference) {
  // The checkpoint+memo default must actually save work, not merely tie:
  // the memo answers the opening probe, so InferenceRuns < OracleCalls.
  SeminalReport R = runSeminalOnSource("let go y =\n"
                                       "  let x = 3 + true in\n"
                                       "  let z = y + 1 in\n"
                                       "  let w = 4 + \"hi\" in\n"
                                       "  z\n");
  EXPECT_GT(R.OracleCalls, 0u);
  EXPECT_LT(R.InferenceRuns, R.OracleCalls);
  EXPECT_GT(R.Accel.CacheHits, 0u);
  EXPECT_GT(R.Accel.IncrementalInferences, 0u);

  // And on a deep-prefix program the checkpoint skips prefix re-checks.
  SeminalReport R2 = runSeminalOnSource(
      "let a = 1\nlet b = a + 1\nlet c = b + 1\nlet d = c + true\n");
  EXPECT_GT(R2.Accel.DeclInferencesSaved, 0u);
}

TEST(AccelEquivalenceTest, TriageHeavyCaseIsDeterministicUnderParallelism) {
  // Parallelism lives in the daemon's shards: searches with an oracle
  // each run at once on different threads, sharing only the process-wide
  // standard-library environment. Every one must reproduce the
  // unaccelerated search; run under TSan in CI.
  const char *Src = "let go y =\n"
                    "  let x = 3 + true in\n"
                    "  let z = y + 1 in\n"
                    "  let w = 4 + \"hi\" in\n"
                    "  z\n";
  SeminalReport Base = runSeminalOnSource(Src, withAccel(false, false));
  std::string BaseFp = fingerprint(Base);
  constexpr size_t Threads = 4;
  std::vector<std::string> Fps(Threads);
  std::vector<size_t> Calls(Threads);
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SeminalReport R = runSeminalOnSource(Src, withAccel(true, true));
      Fps[T] = fingerprint(R);
      Calls[T] = R.OracleCalls;
    });
  for (std::thread &W : Workers)
    W.join();
  for (size_t T = 0; T < Threads; ++T) {
    EXPECT_EQ(Fps[T], BaseFp) << "thread " << T;
    EXPECT_EQ(Calls[T], Base.OracleCalls) << "thread " << T;
  }
}

} // namespace
