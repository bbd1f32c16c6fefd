//===- Parser.h - Mini-Caml parser ------------------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for mini-Caml with OCaml-compatible operator
/// precedence. Notably it shares OCaml's parse of `[1, 2, 3]` as a
/// one-element list containing a triple -- the error class the paper's
/// list-comma constructive change targets -- and lets a nested `match`
/// swallow the outer match's remaining arms, motivating the
/// reparenthesizing change of Section 3.2.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_PARSER_H
#define SEMINAL_MINICAML_PARSER_H

#include "minicaml/Ast.h"
#include "minicaml/Token.h"

#include <optional>
#include <string>
#include <vector>

namespace seminal {
namespace caml {

/// The deepest nesting the parser accepts. Each recursive production
/// (a parenthesized or bracketed expression, a keyword form's branch or
/// body, a right-associative operator, a prefix operator or `raise`, a
/// nested pattern or type), each round of a left-associative operator
/// (`1 + 1 + ...`, field accesses), held until a looser operator ends
/// its chain, and each parameter of a function or argument of an
/// application after the first (each an arrow in its type) is one level;
/// deeper input is a syntax error. The bound keeps the parser's
/// recursion, and the passes that walk the trees it builds and their
/// types (inference, the search, destruction), within the 8 MiB stack of
/// a daemon shard worker in the ASan+UBSan build, the one with the
/// largest frames. There the parser takes 7.5 KB of stack per
/// parenthesis level, the deepest shape (DESIGN.md section 13). Corpus
/// programs nest fewer than 10.
constexpr unsigned MaxNestingDepth = 500;

/// A fatal syntax error. The search procedure only runs on files that
/// parse (it sits between parsing and type-checking, Section 2).
struct ParseError {
  SourceLoc Loc;
  std::string Message;

  std::string str() const { return Loc.str() + ": " + Message; }
};

/// Outcome of a parse: a program, or the first syntax error.
struct ParseResult {
  std::optional<Program> Prog;
  std::optional<ParseError> Error;

  bool ok() const { return Prog.has_value(); }
};

/// Parses a complete source file (a sequence of structure items).
ParseResult parseProgram(const std::string &Source);

/// Parses a single expression (testing convenience).
struct ParseExprResult {
  ExprPtr E;
  std::optional<ParseError> Error;
  bool ok() const { return E != nullptr; }
};
ParseExprResult parseExpression(const std::string &Source);

/// Parses a type signature written in concrete syntax (used to load the
/// standard-library environment). \returns null and sets \p Error on
/// malformed input.
TypeExprPtr parseTypeSignature(const std::string &Source,
                               std::optional<ParseError> &Error);

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_PARSER_H
