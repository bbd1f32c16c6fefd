//===- LexerTest.cpp - Tests for the mini-Caml lexer -----------------------==//

#include "minicaml/Lexer.h"

#include <gtest/gtest.h>

#include <memory>

using namespace seminal;
using namespace seminal::caml;

namespace {

/// Tokens together with the source they view. The source lives on the
/// heap, so moving a Lexed leaves the viewed bytes in place (a short
/// std::string keeps its bytes inside the object).
struct Lexed {
  std::unique_ptr<const std::string> Source;
  std::vector<Token> Tokens;

  size_t size() const { return Tokens.size(); }
  const Token &operator[](size_t I) const { return Tokens[I]; }
  auto begin() const { return Tokens.begin(); }
  auto end() const { return Tokens.end(); }
};

Lexed lex(const std::string &Source) {
  Lexed L{std::make_unique<const std::string>(Source), {}};
  L.Tokens = Lexer(*L.Source).tokenize();
  return L;
}

std::vector<Token::Kind> kinds(const std::string &Source) {
  std::vector<Token::Kind> Kinds;
  for (const Token &T : lex(Source))
    Kinds.push_back(T.TheKind);
  return Kinds;
}

using TK = Token::Kind;

TEST(LexerTest, EmptyInputYieldsEof) {
  auto Tokens = lex("");
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_TRUE(Tokens[0].is(TK::Eof));
}

TEST(LexerTest, IntegersAndIdentifiers) {
  auto Tokens = lex("let x1 = 42");
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_TRUE(Tokens[0].is(TK::KwLet));
  EXPECT_TRUE(Tokens[1].is(TK::LowerIdent));
  EXPECT_EQ(Tokens[1].Text, "x1");
  EXPECT_TRUE(Tokens[2].is(TK::Eq));
  EXPECT_TRUE(Tokens[3].is(TK::IntLit));
  EXPECT_EQ(Tokens[3].IntValue, 42);
}

TEST(LexerTest, UpperIdentIsDistinguished) {
  auto Tokens = lex("Some x");
  EXPECT_TRUE(Tokens[0].is(TK::UpperIdent));
  EXPECT_TRUE(Tokens[1].is(TK::LowerIdent));
}

TEST(LexerTest, AllKeywords) {
  EXPECT_EQ(kinds("let rec in fun if then else match with type of "
                  "exception raise true false mutable not begin end"),
            (std::vector<TK>{TK::KwLet, TK::KwRec, TK::KwIn, TK::KwFun,
                             TK::KwIf, TK::KwThen, TK::KwElse, TK::KwMatch,
                             TK::KwWith, TK::KwType, TK::KwOf,
                             TK::KwException, TK::KwRaise, TK::KwTrue,
                             TK::KwFalse, TK::KwMutable, TK::KwNot,
                             TK::KwBegin, TK::KwEnd, TK::Eof}));
}

TEST(LexerTest, CompoundOperators) {
  EXPECT_EQ(kinds(":= :: -> <- <> <= >= == && || ;;"),
            (std::vector<TK>{TK::Assign, TK::ColonColon, TK::Arrow,
                             TK::LArrow, TK::NotEq, TK::Le, TK::Ge, TK::EqEq,
                             TK::AndAnd, TK::OrOr, TK::SemiSemi, TK::Eof}));
}

TEST(LexerTest, SingleCharOperators) {
  EXPECT_EQ(kinds("+ - * / ^ @ ! < > = ; , . | ( ) [ ] { } : '"),
            (std::vector<TK>{TK::Plus,     TK::Minus,  TK::Star,
                             TK::Slash,    TK::Caret,  TK::At,
                             TK::Bang,     TK::Lt,     TK::Gt,
                             TK::Eq,       TK::Semi,   TK::Comma,
                             TK::Dot,      TK::Bar,    TK::LParen,
                             TK::RParen,   TK::LBracket, TK::RBracket,
                             TK::LBrace,   TK::RBrace, TK::Colon,
                             TK::Quote,    TK::Eof}));
}

TEST(LexerTest, StringLiteralWithEscapes) {
  auto Tokens = lex(R"("a\n\"b\\")");
  ASSERT_GE(Tokens.size(), 1u);
  EXPECT_TRUE(Tokens[0].is(TK::StringLit));
  // The token views the contents as written; the parser decodes them.
  EXPECT_EQ(Tokens[0].Text, R"(a\n\"b\\)");
  EXPECT_EQ(decodeStringLiteral(Tokens[0].Text), "a\n\"b\\");
  EXPECT_EQ(decodeStringLiteral(R"(\t\\n)"), "\t\\n");
  EXPECT_EQ(decodeStringLiteral(""), "");
}

TEST(LexerTest, UnknownEscapeIsError) {
  auto Tokens = lex(R"(x "a\qb")");
  ASSERT_TRUE(Tokens[1].is(TK::Error));
  EXPECT_EQ(Tokens[1].Text, "unknown escape sequence");
  EXPECT_EQ(Tokens[1].Loc.Col, 3u);
}

TEST(LexerTest, TokensViewTheSource) {
  auto Tokens = lex("let name = \"text\"");
  const char *Base = Tokens.Source->data();
  EXPECT_EQ(Tokens[1].Text.data(), Base + 4);
  EXPECT_EQ(Tokens[3].Text.data(), Base + 12);
  EXPECT_EQ(Tokens[3].Text, "text");
}

TEST(LexerTest, IdentifiersLongerThanAShortString) {
  auto Tokens = lex("a_lower_identifier_of_32_bytes_x Upper_Constructor_Name "
                    "primed_identifier_name''");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_TRUE(Tokens[0].is(TK::LowerIdent));
  EXPECT_EQ(Tokens[0].Text, "a_lower_identifier_of_32_bytes_x");
  EXPECT_TRUE(Tokens[1].is(TK::UpperIdent));
  EXPECT_EQ(Tokens[1].Text, "Upper_Constructor_Name");
  EXPECT_TRUE(Tokens[2].is(TK::LowerIdent));
  EXPECT_EQ(Tokens[2].Text, "primed_identifier_name''");
}

TEST(LexerTest, KeywordPrefixesAreIdentifiers) {
  EXPECT_EQ(kinds("letx in_ _x _ iff lets thenx rec' end0 Let"),
            (std::vector<TK>{TK::LowerIdent, TK::LowerIdent, TK::LowerIdent,
                             TK::Underscore, TK::LowerIdent, TK::LowerIdent,
                             TK::LowerIdent, TK::LowerIdent, TK::LowerIdent,
                             TK::UpperIdent, TK::Eof}));
  auto Tokens = lex("letx in_ _x");
  EXPECT_EQ(Tokens[0].Text, "letx");
  EXPECT_EQ(Tokens[1].Text, "in_");
  EXPECT_EQ(Tokens[2].Text, "_x");
}

TEST(LexerTest, UnterminatedStringIsError) {
  auto Tokens = lex("\"abc");
  EXPECT_TRUE(Tokens[0].is(TK::Error));
}

TEST(LexerTest, CommentsAreSkipped) {
  auto Tokens = lex("1 (* comment *) 2");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].IntValue, 1);
  EXPECT_EQ(Tokens[1].IntValue, 2);
}

TEST(LexerTest, NestedComments) {
  auto Tokens = lex("1 (* a (* b *) c *) 2");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[1].IntValue, 2);
}

TEST(LexerTest, UnterminatedCommentIsError) {
  auto Tokens = lex("1 (* oops");
  EXPECT_TRUE(Tokens[1].is(TK::Error));
}

TEST(LexerTest, UnderscoreAlone) {
  auto Tokens = lex("_ _x");
  EXPECT_TRUE(Tokens[0].is(TK::Underscore));
  EXPECT_TRUE(Tokens[1].is(TK::LowerIdent));
  EXPECT_EQ(Tokens[1].Text, "_x");
}

TEST(LexerTest, PrimedIdentifiers) {
  auto Tokens = lex("x' y''");
  EXPECT_EQ(Tokens[0].Text, "x'");
  EXPECT_EQ(Tokens[1].Text, "y''");
}

TEST(LexerTest, LocationsTrackLinesAndColumns) {
  auto Tokens = lex("let\n  x = 1");
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Col, 3u);
}

TEST(LexerTest, SpansCoverTokenText) {
  auto Tokens = lex("hello world");
  EXPECT_EQ(Tokens[0].Loc.Offset, 0u);
  EXPECT_EQ(Tokens[0].EndOffset, 5u);
  EXPECT_EQ(Tokens[1].Loc.Offset, 6u);
  EXPECT_EQ(Tokens[1].EndOffset, 11u);
}

TEST(LexerTest, LoneAmpersandIsError) {
  auto Tokens = lex("a & b");
  EXPECT_TRUE(Tokens[1].is(TK::Error));
  EXPECT_EQ(Tokens[1].Text, "expected '&&'");
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  auto Tokens = lex("a $ b");
  ASSERT_TRUE(Tokens[1].is(TK::Error));
  EXPECT_EQ(Tokens[1].Text, "unexpected character '$'");
  EXPECT_EQ(Tokens[1].describe(), "lexical error: unexpected character '$'");
  // Every byte has its message, a non-ASCII one included.
  auto High = lex("\xff");
  ASSERT_TRUE(High[0].is(TK::Error));
  EXPECT_EQ(High[0].Text, "unexpected character '\xff'");
  ASSERT_TRUE(High[1].is(TK::Eof));
}

TEST(LexerTest, IntegerLiteralOutOfRangeIsError) {
  auto Tokens = lex("x 9223372036854775807 99999999999999999999999");
  ASSERT_TRUE(Tokens[1].is(TK::IntLit));
  EXPECT_EQ(Tokens[1].IntValue, 9223372036854775807L);
  ASSERT_TRUE(Tokens[2].is(TK::Error));
  EXPECT_EQ(Tokens[2].Text, "integer literal out of range");
  EXPECT_EQ(Tokens[2].Loc.Col, 23u);
}

} // namespace
