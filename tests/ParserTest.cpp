//===- ParserTest.cpp - Tests for the mini-Caml parser ---------------------==//

#include "minicaml/Parser.h"
#include "minicaml/Printer.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

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

// The exact text of a syntax error is part of the output: the CLI
// prints it and the daemon replies with it.
TEST(ParserProgramTest, SyntaxErrorsReadExactly) {
  const std::pair<const char *, const char *> Cases[] = {
      {"let s = \"abc", "line 1, column 9: expected an expression but found "
                        "lexical error: unterminated string literal"},
      {"let x = 1 (* oops", "line 1, column 18: unterminated comment"},
      {"(* oops", "line 1, column 8: unterminated comment"},
      {"let s = \"a\\qb\"",
       "line 1, column 9: expected an expression but found lexical error: "
       "unknown escape sequence"},
      {"let b = x & y", "line 1, column 11: expected '&&'"},
      {"let x = 1 $ 2", "line 1, column 11: unexpected character '$'"},
      {"$", "line 1, column 1: unexpected character '$'"},
      {"let x = 99999999999999999999999",
       "line 1, column 9: expected an expression but found lexical error: "
       "integer literal out of range"},
      {"let x = (1 + 2",
       "line 1, column 15: expected ')' but found end of input"},
      {"let x = if true 1 else 2",
       "line 1, column 19: expected 'then' but found 'else'"},
      {"let x = let y = 1 y",
       "line 1, column 20: expected 'in' after let binding but found end of "
       "input"},
      {"let f = fun x x",
       "line 1, column 16: expected a pattern but found end of input"},
      {"let f r = r <- 1",
       "line 1, column 13: '<-' requires a field access on its left-hand side"},
      {"let x = match y with 1 2",
       "line 1, column 24: expected '->' after match pattern but found "
       "integer literal 2"},
      {"let x = 1\nlet y = (2",
       "line 2, column 11: expected ')' but found end of input"},
      // A string literal that spells an operator is no operator.
      {"let x = Some 1 \"+\" 2",
       "line 1, column 16: expected a declaration (let/type/exception) but "
       "found string literal"},
  };
  for (const auto &[Source, Expected] : Cases) {
    ParseResult R = parseProgram(Source);
    ASSERT_FALSE(R.ok()) << Source;
    EXPECT_EQ(R.Error->str(), Expected) << Source;
  }
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
  Program Q = P;
  EXPECT_TRUE(P.equals(Q));
  // Editing the copy's private clone of a declaration breaks equality
  // and leaves the original's shared declaration as it was.
  editDecl(Q, 1).Rhs = makeIntLit(0);
  EXPECT_FALSE(P.equals(Q));
  EXPECT_EQ(P.Decls[0], Q.Decls[0]);
  EXPECT_NE(P.Decls[1], Q.Decls[1]);
  EXPECT_TRUE(P.equals(program("let f x = x + 1\nlet y = f 2")));
}

// Decl::equals backs the oracle's growth, seed and memo checks, so type
// and exception declarations compare field by field, not by name.
TEST(ParserProgramTest, TypeAndExceptionDeclsCompareFieldByField) {
  Program P = program("type t = A | B of int\n"
                      "type t = A | C of int\n"
                      "type t = A | B of string\n"
                      "type t = A | B of int\n"
                      "exception E of int\n"
                      "exception E of string\n"
                      "type r = { x : int }\n"
                      "type r = { mutable x : int }\n");
  EXPECT_FALSE(P.Decls[0]->equals(*P.Decls[1])); // constructor name
  EXPECT_FALSE(P.Decls[0]->equals(*P.Decls[2])); // constructor argument
  EXPECT_TRUE(P.Decls[0]->equals(*P.Decls[3]));
  EXPECT_FALSE(P.Decls[4]->equals(*P.Decls[5]));
  EXPECT_FALSE(P.Decls[6]->equals(*P.Decls[7])); // field mutability
}

TEST(ParserProgramTest, PathResolutionRoundTrip) {
  Program P = program("let y = f (g 1) 2");
  NodePath Path(0);
  Path.Steps = {1}; // first argument of the application
  const Expr *Node = resolvePath(P, Path);
  ASSERT_NE(Node, nullptr);
  EXPECT_EQ(Node->kind(), Expr::Kind::App);
  Decl &D = editDecl(P, 0);
  EXPECT_EQ(resolvePath(D, Path)->kind(), Expr::Kind::App);
  ExprPtr Old = replaceAtPath(D, Path, makeWildcard());
  EXPECT_EQ(Old->kind(), Expr::Kind::App);
  EXPECT_EQ(resolvePath(P, Path)->kind(), Expr::Kind::Wildcard);
}

// Programs share their declarations, so a node reached through const
// hands out only const children.
static_assert(std::is_same_v<decltype(std::declval<const Expr &>().child(0)),
                             const Expr *>);
static_assert(
    std::is_same_v<decltype(std::declval<Expr &>().child(0)), Expr *>);

TEST(ParserProgramTest, TheTreeOwnsItsStrings) {
  // Tokens view the source; the tree must not, so it outlives the source.
  ParseResult R = parseProgram(
      std::string("let a_name_longer_than_a_short_string = "
                  "(\"a literal longer than a short string\\n\", "
                  "Some_constructor_name, List.fold_left)"));
  ASSERT_TRUE(R.ok());
  const Decl &D = *R.Prog->Decls[0];
  EXPECT_EQ(D.Binding->Name, "a_name_longer_than_a_short_string");
  ASSERT_EQ(D.Rhs->numChildren(), 3u);
  EXPECT_EQ(D.Rhs->child(0)->StringValue,
            "a literal longer than a short string\n");
  EXPECT_EQ(D.Rhs->child(1)->Name, "Some_constructor_name");
  EXPECT_EQ(D.Rhs->child(2)->Name, "List.fold_left");
}

TEST(ParserProgramTest, BadPathResolvesToNull) {
  Program P = program("let y = 1");
  NodePath Path(0);
  Path.Steps = {5};
  EXPECT_EQ(resolvePath(P, Path), nullptr);
  NodePath Far(7);
  EXPECT_EQ(resolvePath(P, Far), nullptr);
}

//===----------------------------------------------------------------------===//
// Nesting bound
//===----------------------------------------------------------------------===//

std::string repeat(const std::string &Text, unsigned Times) {
  std::string Out;
  Out.reserve(Text.size() * Times);
  for (unsigned I = 0; I < Times; ++I)
    Out += Text;
  return Out;
}

/// Expressions nested \p Levels deep, one per way of nesting: the whole
/// expression is the first level, and each construct around the
/// innermost atom adds one.
std::vector<std::string> nestedExpressions(unsigned Levels) {
  const unsigned K = Levels - 1;
  return {
      repeat("(", K) + "1" + repeat(")", K),
      repeat("[", K) + "1" + repeat("]", K),
      repeat("1 + ", K) + "1",
      repeat("1 * ", K) + "1",
      repeat("true && ", K) + "true",
      repeat("1 < ", K) + "1",
      repeat("1 :: ", K) + "[]",
      repeat("\"a\" ^ ", K) + "\"a\"",
      repeat("r := ", K) + "1",
      repeat("- ", K) + "1",
      repeat("1; ", K) + "1",
      repeat("if c then ", K) + "1" + repeat(" else 1", K),
      repeat("fun a -> ", K) + "a",
      repeat("let a = 1 in ", K) + "a",
      repeat("match 1 with _ -> ", K) + "1",
      repeat("raise ", K) + "Exit",
      "r" + repeat(".f", K),
      "f 1" + repeat(" 1", K),
      "fun a" + repeat(" a", K - 1) + " -> a",
  };
}

TEST(ParserNestingTest, TheBoundIsAcceptedAndOneLevelMoreIsNot) {
  const std::vector<std::string> AtBound = nestedExpressions(MaxNestingDepth);
  const std::vector<std::string> Over = nestedExpressions(MaxNestingDepth + 1);
  for (size_t I = 0; I < AtBound.size(); ++I) {
    const std::string Head = AtBound[I].substr(0, 24);
    EXPECT_TRUE(parseExpression(AtBound[I]).ok()) << Head;
    ParseExprResult R = parseExpression(Over[I]);
    ASSERT_FALSE(R.ok()) << Head;
    EXPECT_EQ(R.Error->Message, "nesting deeper than " +
                                    std::to_string(MaxNestingDepth) +
                                    " levels")
        << Head;
  }
}

// Operators of different precedence share one count. A level's rounds
// are held while its operands parse, the tighter levels' rounds inside
// an operand are released when a looser operator follows it, and each
// round of a right-associative operator is held until its chain ends.
TEST(ParserNestingTest, MixedPrecedenceChainsCountEachLevelsRounds) {
  struct Shape {
    const char *Unit; ///< Repeated; a looser operator at its end.
    const char *Last; ///< Closes the chain.
    unsigned AtBound; ///< Most repeats that parse.
  };
  const unsigned D = MaxNestingDepth;
  const Shape Shapes[] = {
      // One `+` round per repeat, one `*` round inside the last operand.
      {"1 * 1 + ", "1", D - 1},
      // One `::` round per repeat, one `+` round inside the last head.
      {"1 :: 1 + ", "1", D - 2},
      // One `=` round per repeat, one `^` round inside the last operand.
      {"a ^ b = ", "a", D - 1},
      // Two `*` rounds inside the last operand.
      {"1 * 2 * 3 + ", "1", D - 2},
      // Two `||` rounds per repeat; the last operand holds a `&&`, a
      // `<`, a `+` and a `*` round at once.
      {"x || y && z < 1 + 2 * 3 || ", "x", (D - 4) / 2},
  };
  for (const Shape &S : Shapes) {
    EXPECT_TRUE(parseExpression(repeat(S.Unit, S.AtBound) + S.Last).ok())
        << S.Unit;
    ParseExprResult Over = parseExpression(repeat(S.Unit, S.AtBound + 1) +
                                           S.Last);
    ASSERT_FALSE(Over.ok()) << S.Unit;
    EXPECT_EQ(Over.Error->Message, "nesting deeper than " +
                                       std::to_string(MaxNestingDepth) +
                                       " levels")
        << S.Unit;
  }
}

TEST(ParserNestingTest, PatternsAndTypesShareTheBound) {
  // A parameter pattern is one level per parenthesis; a constructor's
  // argument type is one level, and each parenthesis inside it one more.
  auto Pattern = [](unsigned Levels) {
    return "let f " + repeat("(", Levels) + "x" + repeat(")", Levels) +
           " = x";
  };
  auto Type = [](unsigned Levels) {
    return "type t = A of " + repeat("(", Levels - 1) + "int" +
           repeat(")", Levels - 1);
  };
  EXPECT_TRUE(parseProgram(Pattern(MaxNestingDepth)).ok());
  EXPECT_FALSE(parseProgram(Pattern(MaxNestingDepth + 1)).ok());
  EXPECT_TRUE(parseProgram(Type(MaxNestingDepth)).ok());
  EXPECT_FALSE(parseProgram(Type(MaxNestingDepth + 1)).ok());
  // An arm's pattern sits one level inside the right-hand side, and each
  // `::` adds one.
  EXPECT_TRUE(parseProgram("let g x = match x with " +
                           repeat("_ :: ", MaxNestingDepth - 2) + "_ -> 1")
                  .ok());
  EXPECT_FALSE(parseProgram("let g x = match x with " +
                            repeat("_ :: ", MaxNestingDepth - 1) + "_ -> 1")
                   .ok());
}

TEST(ParserNestingTest, InputsThatOverflowedTheStackAreSyntaxErrors) {
  // Each used to end the process with a stack overflow: the first and
  // the third in the parser's recursion, the second in the passes over
  // the left-nested tree the parser built in a loop, the last in
  // generalizing its 100000-arrow type.
  for (const std::string &Source :
       {"let x = " + repeat("(", 5000) + "1" + repeat(")", 5000),
        "let x = " + repeat("1 + ", 100000) + "1",
        "let x = " + repeat("raise ", 100000) + "Exit",
        "let f" + repeat(" a", 100000) + " = a"}) {
    ParseResult R = parseProgram(Source);
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error->Message.find("nesting deeper than"), std::string::npos)
        << R.Error->str();
  }
  // Sequences of declarations are not nesting.
  EXPECT_TRUE(parseProgram(repeat("let x = 1\n", 5000)).ok());
}

} // namespace
