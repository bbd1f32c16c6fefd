//===- Lexer.h - Mini-Caml lexer --------------------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for mini-Caml. Supports nested (* ... *) comments,
/// decimal integers, string literals with the usual escapes, and the
/// operator set listed in Token.h.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_LEXER_H
#define SEMINAL_MINICAML_LEXER_H

#include "minicaml/Token.h"

#include <string>
#include <string_view>
#include <vector>

namespace seminal {
namespace caml {

/// Tokenizes a complete source buffer up front (mini-Caml files are small,
/// and the searcher re-parses nothing -- it works on ASTs). The lexer
/// copies nothing: its tokens view \p Source, which must outlive them.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Source(Source) {}

  /// Lexes the whole buffer. The result always ends with an Eof token; a
  /// lexical error yields a single Error token at the offending position
  /// followed by Eof.
  std::vector<Token> tokenize();

private:
  Token next();
  Token makeToken(Token::Kind K, SourceLoc Start) const;
  Token errorToken(SourceLoc Start, std::string_view Message) const;
  /// Skips whitespace and comments. \returns false at an unterminated
  /// comment, with Pos at the end of the source.
  bool skipTrivia();
  /// Moves past a newline at Pos.
  void newline() {
    ++Pos;
    ++Line;
    LineStart = Pos;
  }
  /// Moves past the byte at Pos, which may be a newline, and returns it.
  char advance();

  bool atEnd() const { return Pos >= Source.size(); }
  char peek() const { return atEnd() ? '\0' : Source[Pos]; }
  char peekAt(size_t Ahead) const {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  }
  bool match(char Expected) {
    if (atEnd() || Source[Pos] != Expected)
      return false;
    ++Pos;
    return true;
  }
  /// Columns count bytes from the line's first, which is column 1.
  SourceLoc here() const {
    return SourceLoc(Line, static_cast<uint32_t>(Pos - LineStart + 1),
                     static_cast<uint32_t>(Pos));
  }

  std::string_view Source;
  size_t Pos = 0;
  size_t LineStart = 0; ///< Offset of the current line's first byte.
  uint32_t Line = 1;
};

/// Decodes a string literal token's Text (its contents with escapes as
/// written), which the lexer has validated: only \n, \t, \\ and \"
/// occur. The parser builds string nodes and patterns with it.
std::string decodeStringLiteral(std::string_view Raw);

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_LEXER_H
