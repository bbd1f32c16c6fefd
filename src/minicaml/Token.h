//===- Token.h - Mini-Caml tokens -------------------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds produced by the mini-Caml lexer.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_TOKEN_H
#define SEMINAL_MINICAML_TOKEN_H

#include "support/SourceLoc.h"

#include <string>
#include <string_view>

namespace seminal {
namespace caml {

/// A lexical token. LowerIdent and UpperIdent are distinguished because
/// capitalized names are variant constructors in Caml. A token views the
/// source it was lexed from and owns nothing, so the source must outlive
/// it; the parser copies what the AST keeps.
struct Token {
  enum class Kind {
    Eof,
    Error,
    IntLit,
    StringLit,
    LowerIdent,
    UpperIdent,
    // Keywords.
    KwLet,
    KwRec,
    KwIn,
    KwFun,
    KwIf,
    KwThen,
    KwElse,
    KwMatch,
    KwWith,
    KwType,
    KwOf,
    KwException,
    KwRaise,
    KwTrue,
    KwFalse,
    KwMutable,
    KwNot,
    KwBegin,
    KwEnd,
    // Punctuation and operators.
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Semi,
    SemiSemi,
    Bar,
    Arrow,      // ->
    ColonColon, // ::
    Colon,
    Eq,        // =
    EqEq,      // ==
    NotEq,     // <>
    Lt,
    Gt,
    Le,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,  // ^
    At,     // @
    Assign, // :=
    Bang,   // !
    AndAnd, // &&
    OrOr,   // ||
    Dot,
    LArrow,     // <-
    Underscore, // _
    Quote,      // ' (type variables)
  };

  Kind TheKind = Kind::Eof;
  SourceLoc Loc;
  uint32_t EndOffset = 0;
  /// The spelling, a view into the source: an identifier's name, an
  /// operator's characters, a string literal's contents between the
  /// quotes with its escapes as written (decodeStringLiteral in Lexer.h
  /// decodes them). An Error token's message, which has static storage.
  std::string_view Text;
  long IntValue = 0; ///< IntLit payload.

  bool is(Kind K) const { return TheKind == K; }

  SourceSpan span() const { return SourceSpan(Loc, EndOffset); }

  /// Human-readable token description for parse diagnostics.
  std::string describe() const;
};

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_TOKEN_H
