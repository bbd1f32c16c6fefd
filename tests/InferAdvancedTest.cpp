//===- InferAdvancedTest.cpp - Corner cases of the HM oracle --------------==//
//
// The searcher pounds the checker with thousands of strange variants, so
// the checker's corners matter: shadowing, generalization levels, the
// value restriction across declarations, exception payloads in patterns,
// polymorphic containers, and the interplay of wildcard/adapt nodes with
// inference.
//
//===----------------------------------------------------------------------===//

#include "minicaml/Infer.h"
#include "minicaml/Parser.h"

#include <gtest/gtest.h>

using namespace seminal;
using namespace seminal::caml;

namespace {

TypecheckResult check(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->str() : "");
  return typecheckProgram(*R.Prog);
}

std::string typeOf(const TypecheckResult &R, const std::string &Name) {
  for (const auto &[N, T] : R.TopLevelTypes)
    if (N == Name)
      return T;
  return "<missing>";
}

TEST(InferAdvancedTest, ShadowingPicksInnermost) {
  TypecheckResult R = check("let x = 1\n"
                            "let f x = x ^ \"!\"\n"
                            "let y = x + 1");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "f"), "string -> string");
  EXPECT_EQ(typeOf(R, "y"), "int");
}

TEST(InferAdvancedTest, LetShadowingInsideExpression) {
  TypecheckResult R = check("let v = let x = 1 in let x = \"s\" in x");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "v"), "string");
}

TEST(InferAdvancedTest, GeneralizationDoesNotLeakInnerVariables) {
  // The classic level test: x is monomorphic inside f's body even though
  // y's binding is generalized at the inner let.
  TypecheckResult R = check("let f = fun x -> let y = x in y");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "f"), "'a -> 'a");
}

TEST(InferAdvancedTest, InnerLetMonomorphicUseStillFails) {
  // x is lambda-bound, so using it at two types must fail even through
  // an intermediate let.
  TypecheckResult R =
      check("let f = fun x -> let y = x in (y 1, y \"s\")");
  EXPECT_FALSE(R.ok());
}

TEST(InferAdvancedTest, ValueRestrictionAcrossDeclarations) {
  // The unsound-without-restriction program: a ref cell shared at two
  // element types.
  TypecheckResult R = check("let cell = ref []\n"
                            "let push () = cell := [1]\n"
                            "let read () = match !cell with\n"
                            "    [] -> \"empty\" | s :: _ -> s");
  EXPECT_FALSE(R.ok());
}

TEST(InferAdvancedTest, FunctionResultsGeneralize) {
  // Function sugar is a syntactic value: full polymorphism.
  TypecheckResult R = check("let pair x y = (x, y)\n"
                            "let a = pair 1 \"s\"\n"
                            "let b = pair true ()");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "pair"), "'a -> 'b -> 'a * 'b");
}

TEST(InferAdvancedTest, ApplicationResultsDoNotGeneralize) {
  // `id id` is not a value; its type stays weakly polymorphic and the
  // two later uses at different types must clash.
  TypecheckResult R = check("let id x = x\n"
                            "let weak = id id\n"
                            "let a = weak 1\n"
                            "let b = weak \"s\"");
  EXPECT_FALSE(R.ok());
}

TEST(InferAdvancedTest, ExceptionPayloadInMatchPattern) {
  TypecheckResult R = check("exception Bad of string\n"
                            "let describe e = match e with\n"
                            "    Bad msg -> msg\n"
                            "  | Not_found -> \"not found\"\n"
                            "  | _ -> \"other\"");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "describe"), "exn -> string");
}

TEST(InferAdvancedTest, PolymorphicTreeOperations) {
  TypecheckResult R = check(
      "type 'a tree = Leaf | Node of 'a tree * 'a * 'a tree\n"
      "let rec insert x t = match t with\n"
      "    Leaf -> Node (Leaf, x, Leaf)\n"
      "  | Node (l, v, r) ->\n"
      "      if x < v then Node (insert x l, v, r)\n"
      "      else Node (l, v, insert x r)\n"
      "let ints = insert 3 (insert 1 Leaf)\n"
      "let strs = insert \"b\" (insert \"a\" Leaf)");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "insert"), "'a -> 'a tree -> 'a tree");
  EXPECT_EQ(typeOf(R, "ints"), "int tree");
  EXPECT_EQ(typeOf(R, "strs"), "string tree");
}

TEST(InferAdvancedTest, MutualShadowOfStdlib) {
  TypecheckResult R = check("let max a b = a ^ b\n"
                            "let m = max \"x\" \"y\"");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "max"), "string -> string -> string");
}

/// Checks \p D against a checkpoint whose prefix is the program \p Prefix.
TypecheckResult checkAfter(const std::string &Prefix, const Decl &D,
                           const TypecheckOptions &Opts = {}) {
  ParseResult P = parseProgram(Prefix);
  EXPECT_TRUE(P.ok());
  auto CP =
      InferenceCheckpoint::create(*P.Prog, unsigned(P.Prog->Decls.size()));
  EXPECT_TRUE(CP);
  return CP->checkDecl(D, Opts);
}

TEST(InferAdvancedTest, ProgramConstructorsShadowStdlibOnes) {
  const std::string TypeDecl = "type t = None | Some of int";
  const std::string Match =
      "let f = fun x -> match x with None -> 0 | Some n -> n";
  const std::string Bad = "let bad = Some \"s\"";
  const char *Mismatch =
      "This expression has type string but is here used with type int";

  TypecheckResult R = check(TypeDecl + "\n" + Match);
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "f"), "t -> int");
  R = check(TypeDecl + "\n" + Bad);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->Message, Mismatch);

  // The same answers from a checkpoint whose prefix holds the type.
  ParseResult M = parseProgram(Match), B = parseProgram(Bad);
  ASSERT_TRUE(M.ok() && B.ok());
  TypecheckOptions Query;
  Query.QueryNode = M.Prog->Decls[0]->Rhs.get();
  R = checkAfter(TypeDecl, *M.Prog->Decls[0], Query);
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(R.QueriedType, "t -> int");
  R = checkAfter(TypeDecl, *B.Prog->Decls[0]);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->Message, Mismatch);
}

TEST(InferAdvancedTest, ProgramExceptionsShadowPredefinedOnes) {
  // A base lookup winning over the local one would accept `Not_found`
  // with no argument, as the predefined exception takes none.
  const std::string ExcDecl = "exception Not_found of int";
  const std::string Raise = "let g () = raise Not_found";
  const char *Arity =
      "The constructor Not_found expects 1 argument, but is applied here to 0";

  TypecheckResult R = check(ExcDecl + "\n" + Raise);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->Message, Arity);
  ParseResult G = parseProgram(Raise);
  ASSERT_TRUE(G.ok());
  R = checkAfter(ExcDecl, *G.Prog->Decls[0]);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->Message, Arity);
}

TEST(InferAdvancedTest, CurriedPartialApplications) {
  TypecheckResult R = check("let add3 a b c = a + b + c\n"
                            "let f = add3 1\n"
                            "let g = f 2\n"
                            "let h = g 3");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "f"), "int -> int -> int");
  EXPECT_EQ(typeOf(R, "g"), "int -> int");
  EXPECT_EQ(typeOf(R, "h"), "int");
}

TEST(InferAdvancedTest, RecordParameterInferredFromField) {
  TypecheckResult R = check("type p = { px : int; py : int }\n"
                            "let norm v = v.px * v.px + v.py * v.py");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "norm"), "p -> int");
}

TEST(InferAdvancedTest, SetFieldResultIsUnit) {
  TypecheckResult R = check("type c = { mutable v : int }\n"
                            "let bump r = r.v <- r.v + 1");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "bump"), "c -> unit");
}

TEST(InferAdvancedTest, NestedRefs) {
  TypecheckResult R = check("let rr = ref (ref 1)\n"
                            "let v = ! !rr + 1");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "rr"), "int ref ref");
}

TEST(InferAdvancedTest, WildcardNodeTypechecksEverywhere) {
  // Build ASTs with explicit wildcard nodes in assorted positions.
  const char *Sources[] = {
      "let a = 1 + 2",
      "let b = List.map (fun x -> x) [1]",
      "let c = if true then \"a\" else \"b\"",
  };
  for (const char *Src : Sources) {
    ParseResult R = parseProgram(Src);
    ASSERT_TRUE(R.ok());
    // Replace the whole right-hand side with a wildcard: always checks.
    editDecl(*R.Prog, 0).Rhs = makeWildcard();
    EXPECT_TRUE(typecheckProgram(*R.Prog).ok()) << Src;
  }
}

TEST(InferAdvancedTest, AdaptRequiresInnerWellTypedness) {
  // adapt (1 + "x") must fail even in an unconstrained context.
  ParseResult R = parseProgram("let a = 0");
  ASSERT_TRUE(R.ok());
  ParseExprResult Bad = parseExpression("1 + \"x\"");
  editDecl(*R.Prog, 0).Rhs = makeAdapt(std::move(Bad.E));
  EXPECT_FALSE(typecheckProgram(*R.Prog).ok());

  ParseExprResult Good = parseExpression("1 + 2");
  editDecl(*R.Prog, 0).Rhs = makeAdapt(std::move(Good.E));
  EXPECT_TRUE(typecheckProgram(*R.Prog).ok());
}

TEST(InferAdvancedTest, DeepCurriedHigherOrder) {
  TypecheckResult R =
      check("let apply2 f g x = f (g x)\n"
            "let inc x = x + 1\n"
            "let shout s = s ^ \"!\"\n"
            "let pipeline = apply2 shout string_of_int\n"
            "let out = pipeline 3");
  ASSERT_TRUE(R.ok()) << R.Error->Message;
  EXPECT_EQ(typeOf(R, "out"), "string");
}

TEST(InferAdvancedTest, EqualityOnFunctionsStillTypechecks) {
  // Structural equality is 'a -> 'a -> bool; comparing functions is a
  // runtime error in OCaml but type-checks.
  TypecheckResult R = check("let f x = x + 1\nlet same = f = f");
  EXPECT_TRUE(R.ok());
}

TEST(InferAdvancedTest, TypesAllocatedIsReported) {
  TypecheckResult R = check("let x = List.map (fun v -> v + 1) [1; 2]");
  EXPECT_TRUE(R.ok());
  EXPECT_GT(R.TypesAllocated, 10u);
}

TEST(InferAdvancedTest, TypesAllocatedExcludesTheStandardLibrary) {
  // The stdlib environment is built once per process and shared, so a
  // run allocates only for its own program.
  TypecheckResult Empty = typecheckProgram(Program());
  EXPECT_TRUE(Empty.ok());
  EXPECT_EQ(Empty.TypesAllocated, 0u);

  ParseResult P = parseProgram("let x = List.map (fun v -> v + 1) [1; 2]");
  ASSERT_TRUE(P.ok());
  TypecheckResult Whole = typecheckProgram(*P.Prog);
  auto CP = InferenceCheckpoint::create(*P.Prog, 0);
  ASSERT_TRUE(CP);
  TypecheckResult Query = CP->checkDecl(*P.Prog->Decls[0]);
  EXPECT_EQ(Whole.TypesAllocated, Query.TypesAllocated);
}

} // namespace
