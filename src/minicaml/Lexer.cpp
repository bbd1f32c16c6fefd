//===- Lexer.cpp - Mini-Caml lexer implementation -------------------------==//

#include "minicaml/Lexer.h"

#include <cctype>
#include <charconv>
#include <unordered_map>

using namespace seminal;
using namespace seminal::caml;

std::string Token::describe() const {
  switch (TheKind) {
  case Kind::Eof:
    return "end of input";
  case Kind::Error:
    return "lexical error: " + Text;
  case Kind::IntLit:
    return "integer literal " + std::to_string(IntValue);
  case Kind::StringLit:
    return "string literal";
  case Kind::LowerIdent:
  case Kind::UpperIdent:
    return "identifier '" + Text + "'";
  default:
    return Text.empty() ? "token" : "'" + Text + "'";
  }
}

Lexer::Lexer(std::string Source) : Source(std::move(Source)) {}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

bool Lexer::match(char Expected) {
  if (atEnd() || Source[Pos] != Expected)
    return false;
  advance();
  return true;
}

void Lexer::skipTrivia(bool &Ok, std::string &Error) {
  Ok = true;
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    // Nested (* ... *) comments.
    if (C == '(' && peekAt(1) == '*') {
      advance();
      advance();
      int Depth = 1;
      while (Depth > 0) {
        if (atEnd()) {
          Ok = false;
          Error = "unterminated comment";
          return;
        }
        char D = advance();
        if (D == '(' && peek() == '*') {
          advance();
          ++Depth;
        } else if (D == '*' && peek() == ')') {
          advance();
          --Depth;
        }
      }
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(Token::Kind K, SourceLoc Start) {
  Token T;
  T.TheKind = K;
  T.Loc = Start;
  T.EndOffset = static_cast<uint32_t>(Pos);
  T.Text = Source.substr(Start.Offset, Pos - Start.Offset);
  return T;
}

Token Lexer::errorToken(SourceLoc Start, const std::string &Message) {
  Token T;
  T.TheKind = Token::Kind::Error;
  T.Loc = Start;
  T.EndOffset = static_cast<uint32_t>(Pos);
  T.Text = Message;
  return T;
}

Token Lexer::next() {
  bool Ok = true;
  std::string TriviaError;
  skipTrivia(Ok, TriviaError);
  SourceLoc Start = here();
  if (!Ok)
    return errorToken(Start, TriviaError);
  if (atEnd())
    return makeToken(Token::Kind::Eof, Start);

  char C = advance();

  if (std::isdigit(static_cast<unsigned char>(C))) {
    while (std::isdigit(static_cast<unsigned char>(peek())))
      advance();
    Token T = makeToken(Token::Kind::IntLit, Start);
    // A literal too large for a long is a lexical error (the source is
    // untrusted: the daemon must answer it, not abort).
    if (std::from_chars(T.Text.data(), T.Text.data() + T.Text.size(),
                        T.IntValue)
            .ec != std::errc())
      return errorToken(Start, "integer literal out of range");
    return T;
  }

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_' ||
           peek() == '\'')
      advance();
    Token T = makeToken(Token::Kind::LowerIdent, Start);
    static const std::unordered_map<std::string, Token::Kind> Keywords = {
        {"let", Token::Kind::KwLet},         {"rec", Token::Kind::KwRec},
        {"in", Token::Kind::KwIn},           {"fun", Token::Kind::KwFun},
        {"if", Token::Kind::KwIf},           {"then", Token::Kind::KwThen},
        {"else", Token::Kind::KwElse},       {"match", Token::Kind::KwMatch},
        {"with", Token::Kind::KwWith},       {"type", Token::Kind::KwType},
        {"of", Token::Kind::KwOf},           {"raise", Token::Kind::KwRaise},
        {"true", Token::Kind::KwTrue},       {"false", Token::Kind::KwFalse},
        {"mutable", Token::Kind::KwMutable}, {"not", Token::Kind::KwNot},
        {"begin", Token::Kind::KwBegin},     {"end", Token::Kind::KwEnd},
        {"exception", Token::Kind::KwException},
    };
    auto It = Keywords.find(T.Text);
    if (It != Keywords.end()) {
      T.TheKind = It->second;
      return T;
    }
    if (T.Text == "_") {
      T.TheKind = Token::Kind::Underscore;
      return T;
    }
    if (std::isupper(static_cast<unsigned char>(T.Text[0])))
      T.TheKind = Token::Kind::UpperIdent;
    return T;
  }

  if (C == '"') {
    std::string Value;
    while (true) {
      if (atEnd())
        return errorToken(Start, "unterminated string literal");
      char D = advance();
      if (D == '"')
        break;
      if (D == '\\') {
        if (atEnd())
          return errorToken(Start, "unterminated string literal");
        char E = advance();
        switch (E) {
        case 'n':
          Value += '\n';
          break;
        case 't':
          Value += '\t';
          break;
        case '\\':
          Value += '\\';
          break;
        case '"':
          Value += '"';
          break;
        default:
          return errorToken(Start, "unknown escape sequence");
        }
        continue;
      }
      Value += D;
    }
    Token T = makeToken(Token::Kind::StringLit, Start);
    T.Text = Value;
    return T;
  }

  switch (C) {
  case '(':
    return makeToken(Token::Kind::LParen, Start);
  case ')':
    return makeToken(Token::Kind::RParen, Start);
  case '[':
    return makeToken(Token::Kind::LBracket, Start);
  case ']':
    return makeToken(Token::Kind::RBracket, Start);
  case '{':
    return makeToken(Token::Kind::LBrace, Start);
  case '}':
    return makeToken(Token::Kind::RBrace, Start);
  case ',':
    return makeToken(Token::Kind::Comma, Start);
  case ';':
    if (match(';'))
      return makeToken(Token::Kind::SemiSemi, Start);
    return makeToken(Token::Kind::Semi, Start);
  case '|':
    if (match('|'))
      return makeToken(Token::Kind::OrOr, Start);
    return makeToken(Token::Kind::Bar, Start);
  case '-':
    if (match('>'))
      return makeToken(Token::Kind::Arrow, Start);
    return makeToken(Token::Kind::Minus, Start);
  case ':':
    if (match(':'))
      return makeToken(Token::Kind::ColonColon, Start);
    if (match('='))
      return makeToken(Token::Kind::Assign, Start);
    return makeToken(Token::Kind::Colon, Start);
  case '=':
    if (match('='))
      return makeToken(Token::Kind::EqEq, Start);
    return makeToken(Token::Kind::Eq, Start);
  case '<':
    if (match('>'))
      return makeToken(Token::Kind::NotEq, Start);
    if (match('='))
      return makeToken(Token::Kind::Le, Start);
    if (match('-'))
      return makeToken(Token::Kind::LArrow, Start);
    return makeToken(Token::Kind::Lt, Start);
  case '>':
    if (match('='))
      return makeToken(Token::Kind::Ge, Start);
    return makeToken(Token::Kind::Gt, Start);
  case '+':
    return makeToken(Token::Kind::Plus, Start);
  case '*':
    return makeToken(Token::Kind::Star, Start);
  case '/':
    return makeToken(Token::Kind::Slash, Start);
  case '^':
    return makeToken(Token::Kind::Caret, Start);
  case '@':
    return makeToken(Token::Kind::At, Start);
  case '!':
    return makeToken(Token::Kind::Bang, Start);
  case '&':
    if (match('&'))
      return makeToken(Token::Kind::AndAnd, Start);
    return errorToken(Start, "expected '&&'");
  case '.':
    return makeToken(Token::Kind::Dot, Start);
  case '\'':
    return makeToken(Token::Kind::Quote, Start);
  default:
    return errorToken(Start, std::string("unexpected character '") + C + "'");
  }
}

std::vector<Token> Lexer::tokenize() {
  std::vector<Token> Tokens;
  while (true) {
    Token T = next();
    bool Done = T.is(Token::Kind::Eof) || T.is(Token::Kind::Error);
    Tokens.push_back(std::move(T));
    if (Done)
      break;
  }
  if (Tokens.back().is(Token::Kind::Error)) {
    Token Eof;
    Eof.TheKind = Token::Kind::Eof;
    Eof.Loc = here();
    Eof.EndOffset = static_cast<uint32_t>(Pos);
    Tokens.push_back(Eof);
  }
  return Tokens;
}
