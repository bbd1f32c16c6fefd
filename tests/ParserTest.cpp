//===- ParserTest.cpp - Tests for the mini-Caml parser ---------------------==//

#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

using namespace seminal;
using namespace seminal::caml;

namespace {

ExprPtr expr(const std::string &Source) {
  ParseExprResult R = parseExpression(Source);
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->str() : "");
  return std::move(R.E);
}

Program program(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->str() : "");
  return R.ok() ? std::move(*R.Prog) : Program();
}

TEST(ParserExprTest, Literals) {
  EXPECT_EQ(expr("42")->kind(), Expr::Kind::IntLit);
  EXPECT_EQ(expr("true")->kind(), Expr::Kind::BoolLit);
  EXPECT_EQ(expr("\"hi\"")->kind(), Expr::Kind::StringLit);
  EXPECT_EQ(expr("()")->kind(), Expr::Kind::UnitLit);
}

TEST(ParserExprTest, ApplicationFlattens) {
  ExprPtr E = expr("f a b c");
  ASSERT_EQ(E->kind(), Expr::Kind::App);
  EXPECT_EQ(E->numChildren(), 4u); // callee + 3 args
  EXPECT_EQ(E->child(0)->Name, "f");
  EXPECT_EQ(E->child(3)->Name, "c");
}

TEST(ParserExprTest, ApplicationBindsTighterThanOperators) {
  ExprPtr E = expr("f x + g y");
  ASSERT_EQ(E->kind(), Expr::Kind::BinOp);
  EXPECT_EQ(E->Name, "+");
  EXPECT_EQ(E->child(0)->kind(), Expr::Kind::App);
  EXPECT_EQ(E->child(1)->kind(), Expr::Kind::App);
}

TEST(ParserExprTest, ArithmeticPrecedence) {
  ExprPtr E = expr("1 + 2 * 3");
  ASSERT_EQ(E->kind(), Expr::Kind::BinOp);
  EXPECT_EQ(E->Name, "+");
  EXPECT_EQ(E->child(1)->Name, "*");
}

TEST(ParserExprTest, ComparisonIsLowerThanArithmetic) {
  ExprPtr E = expr("a + 1 = b");
  EXPECT_EQ(E->Name, "=");
}

TEST(ParserExprTest, ConsIsRightAssociative) {
  ExprPtr E = expr("1 :: 2 :: []");
  ASSERT_EQ(E->kind(), Expr::Kind::Cons);
  EXPECT_EQ(E->child(1)->kind(), Expr::Kind::Cons);
}

TEST(ParserExprTest, ListWithSemicolons) {
  ExprPtr E = expr("[1; 2; 3]");
  ASSERT_EQ(E->kind(), Expr::Kind::List);
  EXPECT_EQ(E->numChildren(), 3u);
}

TEST(ParserExprTest, ListWithCommasIsSingletonTuple) {
  // The classic Caml pitfall the paper's constructive change targets
  // (Section 5.3): [1, 2, 3] is a one-element list holding a triple.
  ExprPtr E = expr("[1, 2, 3]");
  ASSERT_EQ(E->kind(), Expr::Kind::List);
  ASSERT_EQ(E->numChildren(), 1u);
  EXPECT_EQ(E->child(0)->kind(), Expr::Kind::Tuple);
  EXPECT_EQ(E->child(0)->numChildren(), 3u);
}

TEST(ParserExprTest, TupleExpression) {
  ExprPtr E = expr("(1, \"two\", true)");
  ASSERT_EQ(E->kind(), Expr::Kind::Tuple);
  EXPECT_EQ(E->numChildren(), 3u);
}

TEST(ParserExprTest, FunWithTupledParameter) {
  ExprPtr E = expr("fun (x, y) -> x + y");
  ASSERT_EQ(E->kind(), Expr::Kind::Fun);
  ASSERT_EQ(E->Params.size(), 1u);
  EXPECT_EQ(E->Params[0]->kind(), Pattern::Kind::Tuple);
}

TEST(ParserExprTest, FunWithCurriedParameters) {
  ExprPtr E = expr("fun x y -> x + y");
  ASSERT_EQ(E->kind(), Expr::Kind::Fun);
  EXPECT_EQ(E->Params.size(), 2u);
}

TEST(ParserExprTest, LetIn) {
  ExprPtr E = expr("let x = 1 in x + 1");
  ASSERT_EQ(E->kind(), Expr::Kind::Let);
  EXPECT_FALSE(E->IsRec);
  EXPECT_EQ(E->Binding->kind(), Pattern::Kind::Var);
}

TEST(ParserExprTest, LetRecFunctionSugar) {
  ExprPtr E = expr("let rec f x y = x in f");
  ASSERT_EQ(E->kind(), Expr::Kind::Let);
  EXPECT_TRUE(E->IsRec);
  EXPECT_EQ(E->Params.size(), 2u);
}

TEST(ParserExprTest, LetTuplePattern) {
  ExprPtr E = expr("let (a, b) = p in a");
  ASSERT_EQ(E->kind(), Expr::Kind::Let);
  EXPECT_EQ(E->Binding->kind(), Pattern::Kind::Tuple);
  EXPECT_TRUE(E->Params.empty());
}

TEST(ParserExprTest, IfThenElse) {
  ExprPtr E = expr("if a then b else c");
  ASSERT_EQ(E->kind(), Expr::Kind::If);
  EXPECT_EQ(E->numChildren(), 3u);
}

TEST(ParserExprTest, IfWithoutElse) {
  ExprPtr E = expr("if a then b");
  ASSERT_EQ(E->kind(), Expr::Kind::If);
  EXPECT_EQ(E->numChildren(), 2u);
}

TEST(ParserExprTest, MatchWithArms) {
  ExprPtr E = expr("match x with 0 -> \"zero\" | _ -> \"other\"");
  ASSERT_EQ(E->kind(), Expr::Kind::Match);
  EXPECT_EQ(E->numChildren(), 3u); // scrutinee + 2 bodies
  EXPECT_EQ(E->ArmPats.size(), 2u);
}

TEST(ParserExprTest, MatchLeadingBar) {
  ExprPtr E = expr("match x with | 0 -> 1 | _ -> 2");
  EXPECT_EQ(E->ArmPats.size(), 2u);
}

TEST(ParserExprTest, NestedMatchSwallowsOuterArms) {
  // Without parentheses the inner match takes the trailing arm -- the
  // behavior motivating the paper's reparenthesizing change.
  ExprPtr E = expr("match x with 0 -> match y with 1 -> 2 | _ -> 3");
  ASSERT_EQ(E->kind(), Expr::Kind::Match);
  EXPECT_EQ(E->ArmPats.size(), 1u); // outer has ONE arm
  const Expr *Inner = E->child(1);
  ASSERT_EQ(Inner->kind(), Expr::Kind::Match);
  EXPECT_EQ(Inner->ArmPats.size(), 2u);
}

TEST(ParserExprTest, SequenceExpression) {
  ExprPtr E = expr("print_string \"x\"; 1");
  ASSERT_EQ(E->kind(), Expr::Kind::Seq);
}

TEST(ParserExprTest, RaiseExpression) {
  ExprPtr E = expr("raise Not_found");
  ASSERT_EQ(E->kind(), Expr::Kind::Raise);
  EXPECT_EQ(E->child(0)->kind(), Expr::Kind::Constr);
}

TEST(ParserExprTest, ConstructorApplication) {
  ExprPtr E = expr("Some 3");
  ASSERT_EQ(E->kind(), Expr::Kind::Constr);
  EXPECT_EQ(E->Name, "Some");
  ASSERT_EQ(E->numChildren(), 1u);
}

TEST(ParserExprTest, QualifiedName) {
  ExprPtr E = expr("List.map f xs");
  ASSERT_EQ(E->kind(), Expr::Kind::App);
  EXPECT_EQ(E->child(0)->kind(), Expr::Kind::Var);
  EXPECT_EQ(E->child(0)->Name, "List.map");
}

TEST(ParserExprTest, RefOperations) {
  ExprPtr E = expr("r := !r + 1");
  ASSERT_EQ(E->kind(), Expr::Kind::BinOp);
  EXPECT_EQ(E->Name, ":=");
  EXPECT_EQ(E->child(1)->child(0)->kind(), Expr::Kind::UnaryOp);
}

TEST(ParserExprTest, FieldAccessAndUpdate) {
  ExprPtr E = expr("p.x <- p.x + 1");
  ASSERT_EQ(E->kind(), Expr::Kind::SetField);
  EXPECT_EQ(E->Name, "x");
  EXPECT_EQ(E->child(0)->kind(), Expr::Kind::Var);
}

TEST(ParserExprTest, RecordLiteral) {
  ExprPtr E = expr("{ x = 1; y = \"s\" }");
  ASSERT_EQ(E->kind(), Expr::Kind::Record);
  EXPECT_EQ(E->FieldNames.size(), 2u);
}

TEST(ParserExprTest, BeginEnd) {
  ExprPtr E = expr("begin 1 + 2 end");
  EXPECT_EQ(E->kind(), Expr::Kind::BinOp);
}

TEST(ParserExprTest, UnaryOperators) {
  EXPECT_EQ(expr("not b")->kind(), Expr::Kind::UnaryOp);
  EXPECT_EQ(expr("-x")->kind(), Expr::Kind::UnaryOp);
  EXPECT_EQ(expr("!r")->kind(), Expr::Kind::UnaryOp);
}

TEST(ParserExprTest, StringConcatIsRightAssociative) {
  ExprPtr E = expr("a ^ b ^ c");
  ASSERT_EQ(E->kind(), Expr::Kind::BinOp);
  EXPECT_EQ(E->child(1)->Name, "^");
}

TEST(ParserExprTest, SpansCoverSource) {
  std::string Source = "f (x + y) z";
  ExprPtr E = expr(Source);
  EXPECT_EQ(E->Span.Begin.Offset, 0u);
  EXPECT_EQ(E->Span.EndOffset, Source.size());
  // The parenthesized argument's span covers the parens.
  const Expr *Arg = E->child(1);
  EXPECT_EQ(Arg->Span.Begin.Offset, 2u);
  EXPECT_EQ(Arg->Span.EndOffset, 9u);
}

TEST(ParserExprTest, ErrorsReportLocation) {
  ParseExprResult R = parseExpression("1 + ");
  ASSERT_FALSE(R.ok());
  EXPECT_FALSE(R.Error->Message.empty());
}

TEST(ParserProgramTest, IntegerLiteralOutOfRangeIsSyntaxError) {
  for (const char *Source :
       {"let x = 99999999999999999999999", "99999999999999999999999",
        "let f y = match y with 99999999999999999999999 -> 1 | _ -> 0"}) {
    ParseResult R = parseProgram(Source);
    ASSERT_FALSE(R.ok()) << Source;
    EXPECT_NE(R.Error->Message.find("integer literal out of range"),
              std::string::npos)
        << R.Error->Message;
  }
  // The largest long still parses.
  Program P = program("let x = 9223372036854775807");
  EXPECT_EQ(P.Decls[0]->Rhs->IntValue, 9223372036854775807L);
}

TEST(ParserProgramTest, MultipleDecls) {
  Program P = program("let x = 1\nlet y = x + 1\nlet z = y");
  EXPECT_EQ(P.Decls.size(), 3u);
}

TEST(ParserProgramTest, SemiSemiSeparators) {
  Program P = program("let x = 1;;\nlet y = 2;;");
  EXPECT_EQ(P.Decls.size(), 2u);
}

TEST(ParserProgramTest, FunctionDeclSugar) {
  Program P = program("let add x y = x + y");
  ASSERT_EQ(P.Decls.size(), 1u);
  EXPECT_EQ(P.Decls[0]->Params.size(), 2u);
}

TEST(ParserProgramTest, VariantTypeDecl) {
  Program P = program("type move = For of int * move list | Turn | Go");
  ASSERT_EQ(P.Decls.size(), 1u);
  const Decl &D = *P.Decls[0];
  EXPECT_EQ(D.kind(), Decl::Kind::Type);
  ASSERT_EQ(D.Cases.size(), 3u);
  EXPECT_EQ(D.Cases[0].Name, "For");
  EXPECT_NE(D.Cases[0].ArgType, nullptr);
  EXPECT_EQ(D.Cases[1].ArgType, nullptr);
}

TEST(ParserProgramTest, ParameterizedTypeDecl) {
  Program P = program("type 'a tree = Leaf | Node of 'a tree * 'a * 'a tree");
  ASSERT_EQ(P.Decls.size(), 1u);
  EXPECT_EQ(P.Decls[0]->TypeParams.size(), 1u);
}

TEST(ParserProgramTest, RecordTypeDecl) {
  Program P = program("type point = { mutable x : int; y : int }");
  ASSERT_EQ(P.Decls.size(), 1u);
  const Decl &D = *P.Decls[0];
  EXPECT_TRUE(D.IsRecord);
  ASSERT_EQ(D.Fields.size(), 2u);
  EXPECT_TRUE(D.Fields[0].IsMutable);
  EXPECT_FALSE(D.Fields[1].IsMutable);
}

TEST(ParserProgramTest, ExceptionDecl) {
  Program P = program("exception BadInput of string\nexception Stop");
  ASSERT_EQ(P.Decls.size(), 2u);
  EXPECT_NE(P.Decls[0]->ExcArgType, nullptr);
  EXPECT_EQ(P.Decls[1]->ExcArgType, nullptr);
}

TEST(ParserProgramTest, Figure2ProgramParses) {
  Program P = program(
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n");
  EXPECT_EQ(P.Decls.size(), 3u);
}

TEST(ParserProgramTest, CloneAndEqualsRoundTrip) {
  Program P = program("let f x = x + 1\nlet y = f 2");
  Program Q = P.clone();
  EXPECT_TRUE(P.equals(Q));
  // Mutating the clone breaks equality.
  Q.Decls[1]->Rhs = makeIntLit(0);
  EXPECT_FALSE(P.equals(Q));
}

TEST(ParserProgramTest, PathResolutionRoundTrip) {
  Program P = program("let y = f (g 1) 2");
  NodePath Path(0);
  Path.Steps = {1}; // first argument of the application
  Expr *Node = resolvePath(P, Path);
  ASSERT_NE(Node, nullptr);
  EXPECT_EQ(Node->kind(), Expr::Kind::App);
  ExprPtr Old = replaceAtPath(P, Path, makeWildcard());
  EXPECT_EQ(Old->kind(), Expr::Kind::App);
  EXPECT_EQ(resolvePath(P, Path)->kind(), Expr::Kind::Wildcard);
}

TEST(ParserProgramTest, BadPathResolvesToNull) {
  Program P = program("let y = 1");
  NodePath Path(0);
  Path.Steps = {5};
  EXPECT_EQ(resolvePath(P, Path), nullptr);
  NodePath Far(7);
  EXPECT_EQ(resolvePath(P, Far), nullptr);
}

} // namespace
