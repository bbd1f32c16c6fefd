//===- HashTest.cpp - Structural-hash properties ---------------------------==//
//
// RunReports identify programs by these hashes, so the hash must respect
// structural equality: equal trees must hash equal (clone stability),
// and in practice unequal trees must hash unequal (collision sanity: two
// different programs should not share an identity).
// The inequality property is exercised over exactly the edits the
// searcher performs: every enumerator candidate and registry-supplied
// change.
//
//===----------------------------------------------------------------------===//

#include "core/ChangeRegistry.h"
#include "core/Enumerator.h"
#include "corpus/RandomAst.h"
#include "minicaml/Hash.h"
#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace seminal;
using namespace seminal::caml;

namespace {

Program parse(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << Source;
  return std::move(*R.Prog);
}

//===----------------------------------------------------------------------===//
// Equal trees hash equal
//===----------------------------------------------------------------------===//

TEST(HashTest, CloneHashesIdenticallyOnRandomPrograms) {
  for (uint64_t Seed = 0; Seed < 50; ++Seed) {
    Rng R(Seed);
    Program P = randomProgram(R, /*MaxDecls=*/5, /*MaxDepth=*/5);
    Program C;
    for (const DeclPtr &D : P.Decls)
      C.Decls.push_back(D->clone());
    ASSERT_TRUE(P.equals(C));
    EXPECT_EQ(hashProgram(P), hashProgram(C)) << "seed " << Seed;
    for (size_t I = 0; I < P.Decls.size(); ++I)
      EXPECT_EQ(hashDecl(*P.Decls[I]), hashDecl(*C.Decls[I]))
          << "seed " << Seed << " decl " << I;
  }
}

TEST(HashTest, CloneHashesIdenticallyOnRandomExprs) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Rng R(Seed);
    ExprPtr E = randomExpr(R, /*MaxDepth=*/6);
    EXPECT_EQ(hashExpr(*E), hashExpr(*E->clone())) << "seed " << Seed;
  }
}

TEST(HashTest, SpansAreIgnored) {
  // The same source parsed at different offsets yields different spans
  // but identical structure; the cache must treat them as the same key.
  Program A = parse("let f x = x + 1");
  Program B = parse("\n\n  let f x = x + 1");
  ASSERT_TRUE(A.equals(B));
  EXPECT_EQ(hashProgram(A), hashProgram(B));
}

//===----------------------------------------------------------------------===//
// Collision sanity
//===----------------------------------------------------------------------===//

TEST(HashTest, NoCollisionsAcrossRandomExprCorpus) {
  // Among a few thousand random trees, any two with the same 64-bit hash
  // must actually be structurally equal.
  std::map<uint64_t, std::vector<ExprPtr>> Buckets;
  for (uint64_t Seed = 0; Seed < 3000; ++Seed) {
    Rng R(Seed);
    ExprPtr E = randomExpr(R, /*MaxDepth=*/5);
    Buckets[hashExpr(*E)].push_back(std::move(E));
  }
  // The generator repeats itself, so some buckets legitimately hold
  // several (equal) trees; what must not happen is unequal trees sharing
  // a bucket.
  size_t Distinct = Buckets.size();
  EXPECT_GT(Distinct, 1000u) << "generator (or hash) is degenerate";
  for (const auto &KV : Buckets)
    for (size_t I = 1; I < KV.second.size(); ++I)
      EXPECT_TRUE(KV.second[0]->equals(*KV.second[I]))
          << "hash collision between:\n  " << printExpr(*KV.second[0])
          << "\n  " << printExpr(*KV.second[I]);
}

TEST(HashTest, SmallPerturbationsChangeTheHash) {
  const char *Variants[] = {
      "let f x = x + 1",       // baseline
      "let f x = x + 2",       // literal value
      "let f x = x - 1",       // operator
      "let f y = y + 1",       // binder and variable name
      "let g x = x + 1",       // function name
      "let rec f x = x + 1",   // rec flag
      "let f x z = x + 1",     // extra parameter
      "let f x = (x, 1)",      // expression kind
      "let f x = [x; 1]",      // list vs tuple
      "let f x = 1 + x",       // operand order
  };
  std::map<uint64_t, const char *> Seen;
  for (const char *Src : Variants) {
    uint64_t H = hashProgram(parse(Src));
    auto It = Seen.find(H);
    EXPECT_TRUE(It == Seen.end())
        << "collision: \"" << Src << "\" vs \"" << It->second << "\"";
    Seen.emplace(H, Src);
  }
}

//===----------------------------------------------------------------------===//
// Every searcher edit kind moves the hash
//===----------------------------------------------------------------------===//

/// Applies every candidate the enumerator (plus \p Opts.Extra generators)
/// proposes anywhere inside \p Prog and checks the hash tracks structural
/// equality: modified != original hash exactly when the trees differ.
/// \returns the number of candidates exercised.
int checkEditsPerturbHash(const Program &Prog, const EnumeratorOptions &Opts,
                          const char *Label) {
  SCOPED_TRACE(Label);
  uint64_t BaseHash = hashProgram(Prog);
  struct Site {
    NodePath Path;
    const Expr *Node;
  };
  std::vector<Site> Sites;
  for (unsigned D = 0; D < Prog.Decls.size(); ++D) {
    if (!Prog.Decls[D]->Rhs)
      continue;
    // Preorder walk collecting every path.
    std::vector<NodePath> Stack{NodePath(D)};
    while (!Stack.empty()) {
      NodePath P = std::move(Stack.back());
      Stack.pop_back();
      const Expr *Node = resolvePath(Prog, P);
      if (Node == nullptr) {
        ADD_FAILURE() << "unresolvable path " << P.str();
        return 0;
      }
      for (unsigned I = 0; I < Node->numChildren(); ++I)
        Stack.push_back(P.descend(I));
      Sites.push_back(Site{std::move(P), Node});
    }
  }

  int Checked = 0;
  for (const Site &S : Sites) {
    for (CandidateChange &C : enumerateChanges(*S.Node, Opts)) {
      Program V = Prog;
      replaceAtPath(editDecl(V, S.Path.DeclIndex), S.Path,
                    std::move(C.Replacement));
      bool StructurallyEqual = V.equals(Prog);
      EXPECT_EQ(hashProgram(V) == BaseHash, StructurallyEqual)
          << "edit \"" << C.Description << "\" at " << S.Path.str();
      EXPECT_EQ(hashDecl(*V.Decls[S.Path.DeclIndex]) ==
                    hashDecl(*Prog.Decls[S.Path.DeclIndex]),
                StructurallyEqual)
          << "edit \"" << C.Description << "\" at " << S.Path.str();
      ++Checked;
    }
  }
  return Checked;
}

TEST(HashTest, EnumeratorEditsPerturbTheHash) {
  const char *Sources[] = {
      "let f (x, y) = x + y\nlet z = f 1 2",
      "let add a b = a + b\nlet t = add (1, 2)",
      "let l = 1 :: 2",
      "let m = match [1] with [] -> 0 | h :: t -> h",
      "let p = (fun x -> x ^ \"!\") 3",
  };
  int Checked = 0;
  for (const char *Src : Sources) {
    EnumeratorOptions Opts;
    Opts.GateExpensiveChanges = false; // Surface whole families.
    Checked += checkEditsPerturbHash(parse(Src), Opts, Src);
  }
  EXPECT_GT(Checked, 20) << "suspiciously few candidates enumerated";
}

TEST(HashTest, RegistryEditsPerturbTheHash) {
  // A user-supplied generator (the Section 6 open framework) feeds the
  // same cache; its edits must move the hash too.
  ChangeRegistry Registry;
  Registry.add("swap-to-string", [](const Expr &Node,
                                    std::vector<CandidateChange> &Out) {
    if (Node.kind() != Expr::Kind::IntLit)
      return;
    CandidateChange C;
    C.Replacement = makeStringLit("s");
    C.Description = "replace int literal with a string";
    Out.push_back(std::move(C));
  });
  EnumeratorOptions Opts;
  Opts.Extra = &Registry;
  int Checked = checkEditsPerturbHash(parse("let x = 1 + 2\nlet y = x + 3"),
                                      Opts, "registry source");
  EXPECT_GT(Checked, 0) << "registry generator contributed no candidates";
}

} // namespace
