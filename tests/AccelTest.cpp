//===- AccelTest.cpp - Oracle acceleration equivalence tests ---------------==//
//
// The acceleration layer must be invisible: CheckpointedOracle has to
// reproduce CamlOracle, the unaccelerated reference, bit for bit -- the
// same conventional error, the same suggestions in the same ranked
// order, the same logical-call totals -- while doing strictly less
// inference. These tests pin that contract at three levels: the
// InferenceCheckpoint primitive (rollback correctness, extension
// messages), the CheckpointedOracle (its one environment and its
// accounting), and whole searches over both oracles through the same
// driver, runSeminalWithOracle.
//
//===----------------------------------------------------------------------===//

#include "core/CheckpointedOracle.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
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

/// One search of \p Src over a fresh \p OracleT, through the driver
/// every caller shares.
template <typename OracleT> SeminalReport searchWith(const char *Src) {
  OracleT TheOracle;
  return runSeminalWithOracle(TheOracle, parse(Src));
}

/// Every field of two conventional errors is equal.
void expectSameError(const std::optional<TypeError> &Got,
                     const std::optional<TypeError> &Want,
                     const std::string &Context) {
  ASSERT_EQ(Got.has_value(), Want.has_value()) << Context;
  if (!Want)
    return;
  EXPECT_EQ(int(Got->TheKind), int(Want->TheKind)) << Context;
  EXPECT_EQ(Got->Span.Begin.Offset, Want->Span.Begin.Offset) << Context;
  EXPECT_EQ(Got->Span.EndOffset, Want->Span.EndOffset) << Context;
  EXPECT_EQ(Got->Span.Begin.Line, Want->Span.Begin.Line) << Context;
  EXPECT_EQ(Got->Span.Begin.Col, Want->Span.Begin.Col) << Context;
  EXPECT_EQ(Got->Message, Want->Message) << Context;
  EXPECT_EQ(Got->ActualType, Want->ActualType) << Context;
  EXPECT_EQ(Got->ExpectedType, Want->ExpectedType) << Context;
  EXPECT_EQ(Got->Name, Want->Name) << Context;
}

/// CheckpointedOracle's conventional error for \p Src equals
/// CamlOracle's.
void expectConventionalLikeCaml(const std::string &Src) {
  Program P = parse(Src);
  CamlOracle Plain;
  CheckpointedOracle Fast;
  expectSameError(Fast.conventionalError(P), Plain.conventionalError(P), Src);
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
  // The conventional run proves every declaration before the failing one
  // and records them with the failing one; the searcher's opening
  // whole-program probe asks about exactly those declarations.
  Program P = parse("let a = 1\nlet b = a + true");
  CheckpointedOracle O;
  ASSERT_TRUE(O.conventionalError(P).has_value());
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(O.typechecks(P));
  EXPECT_EQ(O.logicalCalls(), 3u);
  EXPECT_EQ(O.counters().CacheHits, 3u);
  EXPECT_EQ(O.inferenceRuns(), 0u);
  // The record keys on the declarations themselves: a structurally equal
  // deep copy, or a different program, runs inference.
  Program Copy;
  for (const DeclPtr &D : P.Decls)
    Copy.Decls.push_back(D->clone());
  EXPECT_FALSE(O.typechecks(Copy));
  EXPECT_TRUE(O.typechecks(parse("let a = 1\nlet b = a + 1")));
  EXPECT_EQ(O.counters().CacheHits, 3u);
  EXPECT_EQ(O.inferenceRuns(), 2u);

  // Seeded calls go straight to the checkpoint: every call runs
  // inference of the edited declaration alone.
  O.seedPrefix(P, 1);
  EXPECT_EQ(O.counters().CheckpointSeeds, 1u);
  EXPECT_FALSE(O.typechecks(P));
  EXPECT_FALSE(O.typechecks(P));
  EXPECT_EQ(O.counters().CacheHits, 3u);
  EXPECT_EQ(O.counters().IncrementalInferences, 2u);
  EXPECT_EQ(O.inferenceRuns(), 4u);
  O.clearPrefix();
}

TEST(CheckpointedOracleTest, UnseededFallsBackToFullInference) {
  // Without the conventional run nothing is known about the program and
  // no seed matches it: a plain full inference.
  Program P = parse("let a = 1\nlet x = a + \"two\"");
  CheckpointedOracle O;
  EXPECT_FALSE(O.typechecks(P));
  EXPECT_EQ(O.counters().FullInferences, 1u);
  EXPECT_EQ(O.counters().IncrementalInferences, 0u);
  EXPECT_EQ(O.inferenceRuns(), O.logicalCalls());
}

TEST(CheckpointedOracleTest, LocalizationPatternIsServedIncrementally) {
  // The searcher's prefix-localization loop asks about prefixes of
  // growing length, sharing the input's declarations. The conventional
  // run grew the environment over exactly those declarations, so every
  // round is answered from it without inference.
  Program P = parse("let a = 1\nlet b = a + 1\nlet c = b + 2\n"
                    "let d = c ^ \"s\"\nlet e = 1");
  auto Walk = [&](Oracle &O) {
    std::vector<bool> Verdicts;
    Program Prefix;
    for (const DeclPtr &D : P.Decls) {
      Prefix.Decls.push_back(D);
      Verdicts.push_back(O.typechecks(Prefix));
    }
    return Verdicts;
  };
  CamlOracle Plain;
  const std::vector<bool> Truth = Walk(Plain);
  EXPECT_EQ(Truth, (std::vector<bool>{true, true, true, false, false}));

  CheckpointedOracle O;
  ASSERT_TRUE(O.conventionalError(P).has_value());
  EXPECT_EQ(Walk(O), Truth);
  EXPECT_EQ(O.inferenceRuns(), 0u);
  EXPECT_EQ(O.counters().CacheHits, P.Decls.size());
  EXPECT_EQ(O.counters().TypesAllocated, 0u);

  // A caller that walks without the conventional run gets the same
  // verdicts from full inference.
  CheckpointedOracle Cold;
  EXPECT_EQ(Walk(Cold), Truth);
  EXPECT_EQ(Cold.counters().FullInferences, P.Decls.size());
  EXPECT_EQ(Cold.counters().CacheHits, 0u);
}

TEST(CheckpointedOracleTest, ConventionalErrorMatchesCamlOracle) {
  for (const char *Src : ScenarioSources)
    expectConventionalLikeCaml(Src);
  for (const char *Src : {
           // A failing type declaration, and one after a working one.
           "type t = A of undefined_type\nlet x = 1",
           "type t = A | B\ntype u = C of t * nothing\nlet y = C (A, 1)",
           // A failing exception declaration.
           "let a = 1\nexception E of missing\nlet b = a",
           // An unbound name.
           "let a = 1\nlet b = a + undefined_name",
           // A weakly polymorphic reference pinned by a later declaration.
           "let r = ref []\nlet u = r := [1]\nlet v = r := [\"s\"]",
           "let r = ref []\nlet u = !r\nlet w = List.length u + u",
           // Well typed, with type and exception declarations.
           "type t = A of int | B\nexception E of string\n"
           "let f x = match x with A n -> n | B -> raise (E \"b\")\n",
       })
    expectConventionalLikeCaml(Src);

  // Cohort 0 of perfbench's Figure 7 corpus.
  CorpusOptions CO;
  CO.Seed = 20070611;
  CO.Scale = 1.5;
  Corpus C = generateCorpus(CO);
  ASSERT_FALSE(C.Analyzed.empty());
  for (const CorpusFile &F : C.Analyzed)
    expectConventionalLikeCaml(F.Source);
}

TEST(CheckpointedOracleTest, OpeningProbeAndLocalizationRunNoInference) {
  // After the conventional run, a whole search infers only in the seeded
  // layers: the opening whole-program probe and every localization
  // probe are answered from what the conventional run proved.
  for (const char *Src : ScenarioSources) {
    SeminalReport R = searchWith<CheckpointedOracle>(Src);
    const size_t PreSeed = R.Layers[SearchLayer::InitialCheck].Calls +
                           R.Layers[SearchLayer::Localize].Calls;
    EXPECT_EQ(R.Layers[SearchLayer::InitialCheck].Calls, 1u) << Src;
    EXPECT_EQ(R.Accel.CacheHits, PreSeed) << Src;
    EXPECT_EQ(R.Accel.FullInferences, 0u) << Src;
    EXPECT_EQ(R.InferenceRuns, R.OracleCalls - PreSeed) << Src;
  }
}

TEST(CheckpointTest, ExtendWithCommitsOnSuccessAndRollsBackOnFailure) {
  Program P = parse("let a = 1\nlet b = a + 1\nlet c = b ^ \"s\"\n"
                    "let d = a + 2");
  auto CP = InferenceCheckpoint::create(P, 0);
  ASSERT_TRUE(CP);
  // Committing declarations one at a time tracks full-inference prefix
  // verdicts exactly.
  ASSERT_TRUE(CP->extendWith(*P.Decls[0]).ok());
  EXPECT_EQ(CP->prefixLength(), 1u);
  TypecheckResult Second = CP->extendWith(*P.Decls[1]);
  ASSERT_TRUE(Second.ok());
  EXPECT_GT(Second.TypesAllocated, 0u);
  EXPECT_EQ(CP->prefixLength(), 2u);
  // A failed Let rolls back completely: the prefix is unchanged and the
  // checkpoint keeps answering queries correctly.
  EXPECT_FALSE(CP->extendWith(*P.Decls[2]).ok());
  EXPECT_EQ(CP->prefixLength(), 2u);
  TypecheckResult R = CP->checkDecl(*P.Decls[3]);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(CP->checkDecl(*P.Decls[2]).ok());
  // And the environment can still grow past the failure.
  ASSERT_TRUE(CP->extendWith(*P.Decls[3]).ok());
  EXPECT_EQ(CP->prefixLength(), 3u);
}

TEST(CheckpointTest, ExtendWithRendersTheWholeProgramRunsError) {
  // Grown one declaration at a time, the environment reports the failing
  // declaration's error exactly as a whole-program run reports it.
  for (const char *Src : ScenarioSources) {
    Program P = parse(Src);
    TypecheckResult Whole = typecheckProgram(P);
    auto CP = InferenceCheckpoint::create(P, 0);
    ASSERT_TRUE(CP);
    std::optional<TypeError> Grown;
    for (const DeclPtr &D : P.Decls) {
      TypecheckResult R = CP->extendWith(*D);
      if (!R.ok()) {
        Grown = R.Error;
        break;
      }
    }
    expectSameError(Grown, Whole.Error, Src);
    if (Whole.Error) {
      EXPECT_EQ(CP->prefixLength(), *Whole.ErrorDeclIndex) << Src;
    }
  }
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
// Whole-search equivalence with the unaccelerated reference
//===----------------------------------------------------------------------===//

TEST(AccelEquivalenceTest, AllConfigsReproduceTheUnacceleratedSearch) {
  for (const char *Src : ScenarioSources) {
    SeminalReport Base = searchWith<CamlOracle>(Src);
    EXPECT_EQ(Base.InferenceRuns, Base.OracleCalls) << Src;
    SeminalReport R = searchWith<CheckpointedOracle>(Src);
    EXPECT_EQ(fingerprint(R), fingerprint(Base)) << Src;
    expectSameError(R.CheckerError, Base.CheckerError, Src);
    EXPECT_EQ(R.OracleCalls, Base.OracleCalls)
        << "the logical-call count changed on:\n" << Src;
    EXPECT_TRUE(R.Layers == Base.Layers) << Src;
    EXPECT_LT(R.InferenceRuns, Base.InferenceRuns) << Src;
  }
}

TEST(AccelEquivalenceTest, DefaultConfigDoesStrictlyLessInference) {
  // The default oracle must actually save work, not merely tie: the
  // known prefix answers the opening probe and the localization walk,
  // so InferenceRuns < OracleCalls.
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
  SeminalReport Base = searchWith<CamlOracle>(Src);
  std::string BaseFp = fingerprint(Base);
  constexpr size_t Threads = 4;
  std::vector<std::string> Fps(Threads);
  std::vector<size_t> Calls(Threads);
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SeminalReport R = searchWith<CheckpointedOracle>(Src);
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
