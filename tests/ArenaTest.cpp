//===- ArenaTest.cpp - Hash-consed arena tests -----------------------------==//
//
// The arena's contract (DESIGN.md section 11) is that it is invisible:
// interning is structural (clones collapse to the same id, distinct trees
// get distinct ids), cached hashes equal minicaml/Hash of the same tree,
// and a full search with the arena enabled is byte-identical to one
// without it -- and interns nothing. These tests pin each of those
// properties, including on random programs, plus the suggestion capture
// (a shared prefix with one private declaration).
//
//===----------------------------------------------------------------------===//

#include "core/Change.h"
#include "core/Seminal.h"
#include "corpus/RandomAst.h"
#include "minicaml/Arena.h"
#include "minicaml/Hash.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace seminal;
using namespace seminal::caml;

namespace {

Program parse(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << Source;
  return std::move(*R.Prog);
}

/// Sources chosen to exercise every expression and pattern kind the
/// parser can produce: literals, operators, tuples, lists, conses,
/// lambdas, match arms with guards, let-in, records, references,
/// sequencing, and non-let declarations.
const char *SampleSources[] = {
    "let map2 f aList bList =\n"
    "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
    "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n",
    "let rec fold f acc l =\n"
    "  match l with\n"
    "    [] -> acc\n"
    "  | x :: rest -> fold f (f acc x) rest\n",
    "let f y =\n"
    "  let x = \"oops\" in\n"
    "  (x + 1) + (x + 2) + (x + 3) + (x + 4)\n",
    "let f x = print x; x + 1\nlet g = if true then f 1 else f 2\n",
    "let r = ref 0\nlet step () = r := !r + 1\n",
    "let f x y =\n"
    "  let n = List.length y in\n"
    "  match (x, y) with\n"
    "    (0, []) -> []\n"
    "  | (m, []) -> [m]\n"
    "  | (_, h :: _) -> [h + n]\n",
    "let s = \"a\" ^ \"b\"\nlet t = (1, true, ())\n",
};

/// Walks every expression node of a declaration's right-hand side,
/// preorder, calling \p Fn with each node's path steps.
void forEachExprNode(
    const Expr &Root,
    const std::function<void(const Expr &, const std::vector<unsigned> &)> &Fn) {
  std::vector<std::pair<const Expr *, std::vector<unsigned>>> Work;
  Work.push_back({&Root, {}});
  while (!Work.empty()) {
    auto [Node, Steps] = Work.back();
    Work.pop_back();
    Fn(*Node, Steps);
    for (unsigned C = 0; C < Node->numChildren(); ++C) {
      std::vector<unsigned> Child = Steps;
      Child.push_back(C);
      Work.push_back({Node->child(C), Child});
    }
  }
}

//===----------------------------------------------------------------------===//
// Interning: structural identity and cached hashes
//===----------------------------------------------------------------------===//

TEST(ArenaTest, InternCollapsesClones) {
  AstArena A;
  for (const char *Src : SampleSources) {
    Program P = parse(Src);
    for (const DeclPtr &D : P.Decls) {
      AstArena::DeclId Id = A.internDecl(*D);
      DeclPtr Clone = D->clone();
      EXPECT_EQ(A.internDecl(*Clone), Id) << printDecl(*D);
      if (!D->Rhs)
        continue;
      forEachExprNode(*D->Rhs, [&](const Expr &E, const std::vector<unsigned> &) {
        AstArena::ExprId EId = A.internExpr(E);
        ExprPtr EClone = E.clone();
        EXPECT_EQ(A.internExpr(*EClone), EId) << printExpr(E);
      });
    }
  }
  // Every second intern above was a clone of an already-interned tree.
  EXPECT_GT(A.stats().Hits, 0u);
  EXPECT_GT(A.stats().Nodes, 0u);
  EXPECT_GT(A.stats().Bytes, 0u);
}

TEST(ArenaTest, DistinctTreesGetDistinctIds) {
  AstArena A;
  Program P = parse("let a = 1 + 2\nlet b = 1 + 3\nlet c = 2 + 1\n");
  AstArena::DeclId IA = A.internDecl(*P.Decls[0]);
  AstArena::DeclId IB = A.internDecl(*P.Decls[1]);
  AstArena::DeclId IC = A.internDecl(*P.Decls[2]);
  EXPECT_NE(IA, IB);
  EXPECT_NE(IA, IC);
  EXPECT_NE(IB, IC);
  // Type and exception declarations are compared in full, not by name: a
  // session re-adopts a retained prefix environment on id equality alone.
  Program T = parse("type t = A | B\ntype t = A | C\ntype t = A | B\n"
                    "exception E of int\nexception E of string\n");
  AstArena::DeclId T0 = A.internDecl(*T.Decls[0]);
  EXPECT_NE(A.internDecl(*T.Decls[1]), T0);
  EXPECT_EQ(A.internDecl(*T.Decls[2]), T0);
  EXPECT_NE(A.internDecl(*T.Decls[3]), A.internDecl(*T.Decls[4]));
}

TEST(ArenaTest, CachedHashesMatchTreeHashes) {
  AstArena A;
  for (const char *Src : SampleSources) {
    Program P = parse(Src);
    for (const DeclPtr &D : P.Decls) {
      EXPECT_EQ(A.declHash(A.internDecl(*D)), hashDecl(*D)) << printDecl(*D);
      if (!D->Rhs)
        continue;
      forEachExprNode(*D->Rhs, [&](const Expr &E, const std::vector<unsigned> &) {
        EXPECT_EQ(A.exprHash(A.internExpr(E)), hashExpr(E)) << printExpr(E);
      });
    }
  }
}

TEST(ArenaTest, RandomTreesInternAndHashConsistently) {
  for (int Round = 0; Round < 40; ++Round) {
    Rng R(uint64_t(Round) * 9176 + 3);
    AstArena A;
    ExprPtr E = randomExpr(R, 5);
    AstArena::ExprId Id = A.internExpr(*E);
    EXPECT_EQ(A.internExpr(*E->clone()), Id);
    EXPECT_EQ(A.exprHash(Id), hashExpr(*E));
    PatternPtr Pat = randomPattern(R, 4);
    AstArena::PatternId PId = A.internPattern(*Pat);
    EXPECT_EQ(A.internPattern(*Pat->clone()), PId);
  }
}

TEST(ArenaTest, ExprChildrenFollowAstLayout) {
  AstArena A;
  Program P = parse("let x = (1 + 2, f 3 4)\n");
  const Expr &Rhs = *P.Decls[0]->Rhs;
  AstArena::ExprId Id = A.internExpr(Rhs);
  const std::vector<AstArena::ExprId> &Kids = A.exprChildren(Id);
  ASSERT_EQ(Kids.size(), Rhs.numChildren());
  for (unsigned C = 0; C < Rhs.numChildren(); ++C) {
    EXPECT_EQ(Kids[C], A.internExpr(*Rhs.child(C)));
    EXPECT_EQ(A.exprKind(Kids[C]), Rhs.child(C)->kind());
  }
}

//===----------------------------------------------------------------------===//
// Suggestion capture: a shared prefix plus one private declaration
//===----------------------------------------------------------------------===//

TEST(ArenaTest, SharedCaptureMatchesDeepCopy) {
  AstArena A;
  for (const char *Src : SampleSources) {
    Program P = parse(Src);
    // What a suggestion captures: the prefix shared with the input, the
    // last declaration a private clone.
    Program Capture = P;
    Capture.Decls.back() = P.Decls.back()->clone();
    Program Deep;
    for (const DeclPtr &D : P.Decls)
      Deep.Decls.push_back(D->clone());

    EXPECT_TRUE(Capture.equals(Deep)) << Src;
    EXPECT_EQ(printProgram(Capture), printProgram(Deep));
    EXPECT_EQ(hashProgram(Capture), hashProgram(Deep));
    for (size_t I = 0; I < P.Decls.size(); ++I) {
      EXPECT_EQ(A.internDecl(*Capture.Decls[I]), A.internDecl(*Deep.Decls[I]));
      EXPECT_EQ(Capture.Decls[I] == P.Decls[I], I + 1 < P.Decls.size());
    }
  }
}

//===----------------------------------------------------------------------===//
// Whole-search identity: arena on vs off
//===----------------------------------------------------------------------===//

/// Byte-exact fingerprint of a ranked report (mirrors AccelTest's).
std::string fingerprint(const SeminalReport &R) {
  std::string Out;
  Out += "typechecks=" + std::to_string(R.InputTypechecks);
  Out += " failing=" +
         (R.FailingDeclIndex ? std::to_string(*R.FailingDeclIndex)
                             : std::string("none"));
  Out += " calls=" + std::to_string(R.OracleCalls);
  Out += " budget=" + std::to_string(R.BudgetExhausted);
  Out += "\n";
  for (const Suggestion &S : R.Suggestions) {
    Out += "[" + std::to_string(int(S.Kind)) + "/" + S.Path.str() + "/p" +
           std::to_string(S.Priority) + "] ";
    if (S.Original)
      Out += printExpr(*S.Original);
    Out += " => ";
    if (S.Replacement)
      Out += printExpr(*S.Replacement);
    Out += " :: " + S.Description;
    Out += " :: ctx " + S.ContextAfter;
    Out += "\n";
  }
  return Out;
}

SeminalOptions withArena(bool Arena) {
  SeminalOptions Opts;
  Opts.Search.Accel.Arena = Arena;
  return Opts;
}

TEST(ArenaIdentityTest, PaperExamplesMatchWithArenaOff) {
  const char *Sources[] = {
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n",
      "let e1 x = x ^ \"!\"\nlet e2 = \"s\"\nlet t = if e1 e2 then 1 else 2\n",
      "let f x = print x; x + 1\n",
      "let go y =\n"
      "  let x = 3 + true in\n"
      "  let z = y + 1 in\n"
      "  let w = 4 + \"hi\" in\n"
      "  z\n",
      "let f (x, y) = x + y\nlet z = f 1 2",
  };
  for (const char *Src : Sources) {
    SeminalReport Off = runSeminalOnSource(Src, withArena(false));
    SeminalReport On = runSeminalOnSource(Src, withArena(true));
    EXPECT_EQ(fingerprint(On), fingerprint(Off)) << Src;
    EXPECT_EQ(On.OracleCalls, Off.OracleCalls) << Src;
    EXPECT_EQ(On.InferenceRuns, Off.InferenceRuns) << Src;
    // Candidate evaluation and suggestion capture intern nothing: a
    // one-shot search leaves the arena empty either way.
    EXPECT_EQ(On.Accel.ArenaNodes, 0u) << Src;
    EXPECT_EQ(On.Accel.ArenaHits, 0u) << Src;
    EXPECT_EQ(Off.Accel.ArenaNodes, 0u) << Src;
  }
}

TEST(ArenaIdentityTest, OneShotChecksInternNothing) {
  // Candidates are evaluated against the prefix checkpoint and captured
  // as clones, so a default one-shot check -- the CLI's -- never touches
  // the arena, whatever the search does (localization, adaptation,
  // constructive changes, triage, decl changes).
  for (const char *Src : SampleSources) {
    SeminalReport R = runSeminalOnSource(Src);
    EXPECT_EQ(R.Accel.ArenaNodes, 0u) << Src;
    EXPECT_EQ(R.Accel.ArenaHits, 0u) << Src;
    EXPECT_EQ(R.Accel.ArenaBytes, 0u) << Src;
  }
  SeminalReport Triage = runSeminalOnSource("let go y =\n"
                                            "  let x = 3 + true in\n"
                                            "  let w = 4 + \"hi\" in\n"
                                            "  y\n");
  ASSERT_FALSE(Triage.Suggestions.empty());
  EXPECT_EQ(Triage.Accel.ArenaNodes, 0u);
}

/// Seeded random programs: whatever the generator produces -- well-typed,
/// ill-typed, or unsearchable -- the arena run must match the non-arena
/// run byte for byte.
class ArenaFuzzIdentity : public ::testing::TestWithParam<int> {};

TEST_P(ArenaFuzzIdentity, RandomProgramsMatch) {
  for (int Iter = 0; Iter < 8; ++Iter) {
    uint64_t Seed = uint64_t(GetParam()) * 7919 + uint64_t(Iter) * 104729 + 1;
    Rng R(Seed);
    Program P = randomProgram(R, 4, 4);
    SeminalReport Off = runSeminal(P, withArena(false));
    SeminalReport On = runSeminal(P, withArena(true));
    EXPECT_EQ(fingerprint(On), fingerprint(Off))
        << "seed " << Seed << "\n" << printProgram(P);
    EXPECT_EQ(On.OracleCalls, Off.OracleCalls) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaFuzzIdentity, ::testing::Range(0, 6));

} // namespace
