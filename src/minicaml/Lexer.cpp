//===- Lexer.cpp - Mini-Caml lexer implementation -------------------------==//

#include "minicaml/Lexer.h"

#include <cassert>
#include <charconv>

using namespace seminal;
using namespace seminal::caml;

namespace {

using TK = Token::Kind;

bool isDigit(char C) { return C >= '0' && C <= '9'; }

bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}

bool isIdentChar(char C) {
  return isIdentStart(C) || isDigit(C) || C == '\'';
}

/// The keyword \p S spells, or else the kind of identifier it is: one
/// switch on the first byte, then at most three compares.
TK identifierKind(std::string_view S) {
  switch (S[0]) {
  case 'b':
    if (S == "begin")
      return TK::KwBegin;
    break;
  case 'e':
    if (S == "else")
      return TK::KwElse;
    if (S == "end")
      return TK::KwEnd;
    if (S == "exception")
      return TK::KwException;
    break;
  case 'f':
    if (S == "fun")
      return TK::KwFun;
    if (S == "false")
      return TK::KwFalse;
    break;
  case 'i':
    if (S == "in")
      return TK::KwIn;
    if (S == "if")
      return TK::KwIf;
    break;
  case 'l':
    if (S == "let")
      return TK::KwLet;
    break;
  case 'm':
    if (S == "match")
      return TK::KwMatch;
    if (S == "mutable")
      return TK::KwMutable;
    break;
  case 'n':
    if (S == "not")
      return TK::KwNot;
    break;
  case 'o':
    if (S == "of")
      return TK::KwOf;
    break;
  case 'r':
    if (S == "rec")
      return TK::KwRec;
    if (S == "raise")
      return TK::KwRaise;
    break;
  case 't':
    if (S == "then")
      return TK::KwThen;
    if (S == "true")
      return TK::KwTrue;
    if (S == "type")
      return TK::KwType;
    break;
  case 'w':
    if (S == "with")
      return TK::KwWith;
    break;
  case '_':
    if (S.size() == 1)
      return TK::Underscore;
    break;
  default:
    if (S[0] >= 'A' && S[0] <= 'Z')
      return TK::UpperIdent;
    break;
  }
  return TK::LowerIdent;
}

/// "unexpected character 'C'" for byte \p C. The 256 messages are laid
/// out once in one string, so an Error token views its message like the
/// fixed ones do.
std::string_view unexpectedCharacter(char C) {
  static constexpr std::string_view Prefix = "unexpected character '";
  static constexpr size_t Width = Prefix.size() + 2;
  static const std::string Messages = [] {
    std::string All;
    All.reserve(256 * Width);
    for (unsigned I = 0; I < 256; ++I) {
      All += Prefix;
      All += static_cast<char>(I);
      All += '\'';
    }
    return All;
  }();
  return std::string_view(Messages).substr(
      static_cast<unsigned char>(C) * Width, Width);
}

} // namespace

std::string Token::describe() const {
  switch (TheKind) {
  case Kind::Eof:
    return "end of input";
  case Kind::Error:
    return "lexical error: " + std::string(Text);
  case Kind::IntLit:
    return "integer literal " + std::to_string(IntValue);
  case Kind::StringLit:
    return "string literal";
  case Kind::LowerIdent:
  case Kind::UpperIdent:
    return "identifier '" + std::string(Text) + "'";
  default:
    return Text.empty() ? "token" : "'" + std::string(Text) + "'";
  }
}

std::string caml::decodeStringLiteral(std::string_view Raw) {
  std::string Value;
  Value.reserve(Raw.size());
  for (size_t I = 0; I < Raw.size(); ++I) {
    char C = Raw[I];
    if (C == '\\') {
      assert(I + 1 < Raw.size() && "the lexer validated the escapes");
      C = Raw[++I];
      if (C == 'n')
        C = '\n';
      else if (C == 't')
        C = '\t';
    }
    Value += C;
  }
  return Value;
}

char Lexer::advance() {
  char C = Source[Pos];
  if (C == '\n')
    newline();
  else
    ++Pos;
  return C;
}

bool Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = Source[Pos];
    if (C == '\n') {
      newline();
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++Pos;
      continue;
    }
    if (C != '(' || peekAt(1) != '*')
      return true;
    // Nested (* ... *) comments.
    Pos += 2;
    int Depth = 1;
    while (Depth > 0) {
      if (atEnd())
        return false;
      char D = advance();
      if (D == '(' && peek() == '*') {
        ++Pos;
        ++Depth;
      } else if (D == '*' && peek() == ')') {
        ++Pos;
        --Depth;
      }
    }
  }
  return true;
}

Token Lexer::makeToken(Token::Kind K, SourceLoc Start) const {
  Token T;
  T.TheKind = K;
  T.Loc = Start;
  T.EndOffset = static_cast<uint32_t>(Pos);
  T.Text = Source.substr(Start.Offset, Pos - Start.Offset);
  return T;
}

Token Lexer::errorToken(SourceLoc Start, std::string_view Message) const {
  Token T;
  T.TheKind = TK::Error;
  T.Loc = Start;
  T.EndOffset = static_cast<uint32_t>(Pos);
  T.Text = Message;
  return T;
}

Token Lexer::next() {
  bool Ok = skipTrivia();
  SourceLoc Start = here();
  if (!Ok)
    return errorToken(Start, "unterminated comment");
  if (atEnd())
    return makeToken(TK::Eof, Start);

  char C = Source[Pos++];

  if (isDigit(C)) {
    while (isDigit(peek()))
      ++Pos;
    Token T = makeToken(TK::IntLit, Start);
    // A literal too large for a long is a lexical error (the source is
    // untrusted: the daemon must answer it, not abort).
    if (std::from_chars(T.Text.data(), T.Text.data() + T.Text.size(),
                        T.IntValue)
            .ec != std::errc())
      return errorToken(Start, "integer literal out of range");
    return T;
  }

  if (isIdentStart(C)) {
    while (isIdentChar(peek()))
      ++Pos;
    Token T = makeToken(TK::LowerIdent, Start);
    T.TheKind = identifierKind(T.Text);
    return T;
  }

  if (C == '"') {
    // Validated here, decoded by the parser (decodeStringLiteral).
    while (true) {
      if (atEnd())
        return errorToken(Start, "unterminated string literal");
      char D = advance();
      if (D == '"')
        break;
      if (D != '\\')
        continue;
      if (atEnd())
        return errorToken(Start, "unterminated string literal");
      char E = advance();
      if (E != 'n' && E != 't' && E != '\\' && E != '"')
        return errorToken(Start, "unknown escape sequence");
    }
    Token T = makeToken(TK::StringLit, Start);
    T.Text = T.Text.substr(1, T.Text.size() - 2);
    return T;
  }

  switch (C) {
  case '(':
    return makeToken(TK::LParen, Start);
  case ')':
    return makeToken(TK::RParen, Start);
  case '[':
    return makeToken(TK::LBracket, Start);
  case ']':
    return makeToken(TK::RBracket, Start);
  case '{':
    return makeToken(TK::LBrace, Start);
  case '}':
    return makeToken(TK::RBrace, Start);
  case ',':
    return makeToken(TK::Comma, Start);
  case ';':
    if (match(';'))
      return makeToken(TK::SemiSemi, Start);
    return makeToken(TK::Semi, Start);
  case '|':
    if (match('|'))
      return makeToken(TK::OrOr, Start);
    return makeToken(TK::Bar, Start);
  case '-':
    if (match('>'))
      return makeToken(TK::Arrow, Start);
    return makeToken(TK::Minus, Start);
  case ':':
    if (match(':'))
      return makeToken(TK::ColonColon, Start);
    if (match('='))
      return makeToken(TK::Assign, Start);
    return makeToken(TK::Colon, Start);
  case '=':
    if (match('='))
      return makeToken(TK::EqEq, Start);
    return makeToken(TK::Eq, Start);
  case '<':
    if (match('>'))
      return makeToken(TK::NotEq, Start);
    if (match('='))
      return makeToken(TK::Le, Start);
    if (match('-'))
      return makeToken(TK::LArrow, Start);
    return makeToken(TK::Lt, Start);
  case '>':
    if (match('='))
      return makeToken(TK::Ge, Start);
    return makeToken(TK::Gt, Start);
  case '+':
    return makeToken(TK::Plus, Start);
  case '*':
    return makeToken(TK::Star, Start);
  case '/':
    return makeToken(TK::Slash, Start);
  case '^':
    return makeToken(TK::Caret, Start);
  case '@':
    return makeToken(TK::At, Start);
  case '!':
    return makeToken(TK::Bang, Start);
  case '&':
    if (match('&'))
      return makeToken(TK::AndAnd, Start);
    return errorToken(Start, "expected '&&'");
  case '.':
    return makeToken(TK::Dot, Start);
  case '\'':
    return makeToken(TK::Quote, Start);
  default:
    return errorToken(Start, unexpectedCharacter(C));
  }
}

std::vector<Token> Lexer::tokenize() {
  // A corpus file lexes to a few hundred tokens, so the first block
  // holds that many. It is not sized from the source's length: a source
  // of comments would reserve for tokens it never has.
  std::vector<Token> Tokens;
  Tokens.reserve(256);
  while (true) {
    Tokens.push_back(next());
    if (Tokens.back().is(TK::Eof))
      break;
    if (Tokens.back().is(TK::Error)) {
      Tokens.push_back(makeToken(TK::Eof, here()));
      break;
    }
  }
  return Tokens;
}
