//===- Parser.cpp - Mini-Caml parser implementation -----------------------==//

#include "minicaml/Parser.h"

#include "minicaml/Lexer.h"

#include <cassert>
#include <string>

using namespace seminal;
using namespace seminal::caml;

namespace {

using TK = Token::Kind;

/// The parser proper. Error handling uses a sticky failure flag: once a
/// syntax error is recorded every parse function bails out immediately, so
/// only the first error is reported (library code avoids exceptions).
class ParserImpl {
public:
  explicit ParserImpl(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  ParseResult parseProgram();
  ParseExprResult parseSingleExpression();
  TypeExprPtr parseSingleTypeExpr(std::optional<ParseError> &OutError);

private:
  // Token stream helpers -------------------------------------------------
  const Token &peek(size_t Ahead = 0) const {
    size_t I = Index + Ahead;
    if (I >= Tokens.size())
      I = Tokens.size() - 1;
    return Tokens[I];
  }
  bool check(TK K) const { return peek().is(K); }
  bool accept(TK K) {
    if (!check(K))
      return false;
    ++Index;
    return true;
  }
  const Token &advance() {
    const Token &T = Tokens[Index];
    if (Index + 1 < Tokens.size())
      ++Index;
    return T;
  }
  void expect(TK K, const std::string &What) {
    if (accept(K))
      return;
    fail("expected " + What + " but found " + peek().describe());
  }
  void fail(const std::string &Message) {
    if (Failed)
      return;
    Failed = true;
    Error = ParseError{peek().Loc, Message};
  }

  /// Levels of nesting a production has entered; they are released when
  /// it returns. Every recursive production and every round of a
  /// left-associative operator loop enters one, so Depth bounds both the
  /// parser's own recursion and the depth of the tree it builds. So does
  /// every parameter of a function and argument of an application after
  /// the first: each is one more arrow in a type that inference walks
  /// recursively.
  class Nesting {
  public:
    explicit Nesting(ParserImpl &P) : P(P) {}
    ~Nesting() { P.Depth -= Levels; }
    Nesting(const Nesting &) = delete;
    Nesting &operator=(const Nesting &) = delete;

    /// Leaves every level this object entered.
    void release() {
      P.Depth -= Levels;
      Levels = 0;
    }

    /// Enters one more level. \returns false, with a syntax error, past
    /// MaxNestingDepth.
    bool deeper() {
      ++Levels;
      if (++P.Depth <= MaxNestingDepth)
        return true;
      P.fail("nesting deeper than " + std::to_string(MaxNestingDepth) +
             " levels");
      return false;
    }

  private:
    ParserImpl &P;
    unsigned Levels = 0;
  };

  void setSpan(Expr *E, SourceLoc Start) {
    E->Span = SourceSpan(Start, prevEnd());
  }
  void setSpan(Pattern *P, SourceLoc Start) {
    P->Span = SourceSpan(Start, prevEnd());
  }
  uint32_t prevEnd() const {
    return Index == 0 ? 0 : Tokens[Index - 1].EndOffset;
  }

  // Grammar productions ---------------------------------------------------
  DeclPtr parseDecl();
  DeclPtr parseTypeDecl();
  DeclPtr parseExceptionDecl();
  DeclPtr parseLetDecl();

  ExprPtr parseExpr();       // seq level: e1; e2
  ExprPtr parseTupleExpr();  // e1, e2, ...
  ExprPtr parseAssignExpr(); // := and <- (right associative)
  /// Binary operators of level \p MinLevel or tighter (OperatorLevel).
  ExprPtr parseBinaryExpr(int MinLevel);
  ExprPtr parseUnaryExpr();
  ExprPtr parseAppExpr();
  ExprPtr parsePostfixExpr(); // field access
  ExprPtr parseAtomExpr();
  ExprPtr parseKeywordForm(); // fun / if / match / let-in / raise
  bool startsKeywordForm() const;
  bool startsAtom() const;

  /// Parses a function's parameters up to \p End. Each after the first
  /// enters a level of \p Levels, which the caller holds while the body
  /// parses.
  std::vector<PatternPtr> parseParams(TK End, Nesting &Levels);
  PatternPtr parsePattern();       // tuple level
  PatternPtr parseConsPattern();   // p :: p
  PatternPtr parseSimplePattern(); // atoms and constructor application
  PatternPtr parseAtomPattern();

  TypeExprPtr parseTypeExpr();      // arrow level
  TypeExprPtr parseTupleTypeExpr(); // star level
  TypeExprPtr parsePostfixTypeExpr();
  TypeExprPtr parseAtomTypeExpr();

  std::vector<Token> Tokens;
  size_t Index = 0;
  unsigned Depth = 0; ///< Nesting levels entered (see Nesting).
  bool Failed = false;
  ParseError Error{SourceLoc(), ""};
};

/// \returns the binary operator \p T spells, or null. A string literal's
/// Text is its contents, which may spell one.
const BinaryOperator *binaryOperator(const Token &T) {
  return T.is(TK::StringLit) ? nullptr : findBinaryOperator(T.Text);
}

bool isAtomStart(const Token &T) {
  switch (T.TheKind) {
  case TK::IntLit:
  case TK::StringLit:
  case TK::LowerIdent:
  case TK::UpperIdent:
  case TK::KwTrue:
  case TK::KwFalse:
  case TK::LParen:
  case TK::LBracket:
  case TK::LBrace:
  case TK::KwBegin:
    return true;
  default:
    return false;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

ParseResult ParserImpl::parseProgram() {
  Program Prog;
  while (!check(TK::Eof) && !Failed) {
    if (check(TK::Error)) {
      fail(std::string(peek().Text));
      break;
    }
    if (accept(TK::SemiSemi))
      continue;
    DeclPtr D = parseDecl();
    if (Failed)
      break;
    Prog.Decls.push_back(std::move(D));
  }
  ParseResult Result;
  if (Failed)
    Result.Error = Error;
  else
    Result.Prog = std::move(Prog);
  return Result;
}

DeclPtr ParserImpl::parseDecl() {
  if (check(TK::KwType))
    return parseTypeDecl();
  if (check(TK::KwException))
    return parseExceptionDecl();
  if (check(TK::KwLet))
    return parseLetDecl();
  fail("expected a declaration (let/type/exception) but found " +
       peek().describe());
  return nullptr;
}

DeclPtr ParserImpl::parseTypeDecl() {
  SourceLoc Start = peek().Loc;
  expect(TK::KwType, "'type'");
  auto D = std::make_shared<Decl>(Decl::Kind::Type);

  // Optional type parameters: 'a or ('a, 'b).
  if (accept(TK::Quote)) {
    if (!check(TK::LowerIdent)) {
      fail("expected a type variable name after '");
      return nullptr;
    }
    D->TypeParams.emplace_back(advance().Text);
  } else if (check(TK::LParen) && peek(1).is(TK::Quote)) {
    advance(); // (
    while (true) {
      expect(TK::Quote, "'");
      if (Failed)
        return nullptr;
      if (!check(TK::LowerIdent)) {
        fail("expected a type variable name after '");
        return nullptr;
      }
      D->TypeParams.emplace_back(advance().Text);
      if (!accept(TK::Comma))
        break;
    }
    expect(TK::RParen, "')'");
  }
  if (Failed)
    return nullptr;

  if (!check(TK::LowerIdent)) {
    fail("expected a type name");
    return nullptr;
  }
  D->TypeName = advance().Text;
  expect(TK::Eq, "'=' in type declaration");
  if (Failed)
    return nullptr;

  if (accept(TK::LBrace)) {
    // Record type.
    D->IsRecord = true;
    while (true) {
      RecordFieldDecl Field;
      Field.IsMutable = accept(TK::KwMutable);
      if (!check(TK::LowerIdent)) {
        fail("expected a field name");
        return nullptr;
      }
      Field.Name = advance().Text;
      expect(TK::Colon, "':' after field name");
      Field.Type = parseTypeExpr();
      if (Failed)
        return nullptr;
      D->Fields.push_back(std::move(Field));
      if (accept(TK::Semi)) {
        if (accept(TK::RBrace))
          break;
        continue;
      }
      expect(TK::RBrace, "'}' at end of record type");
      break;
    }
  } else {
    // Variant type: [|] C1 [of t] | C2 ...
    accept(TK::Bar);
    while (true) {
      if (!check(TK::UpperIdent)) {
        fail("expected a constructor name");
        return nullptr;
      }
      VariantCase Case;
      Case.Name = advance().Text;
      if (accept(TK::KwOf)) {
        Case.ArgType = parseTypeExpr();
        if (Failed)
          return nullptr;
      }
      D->Cases.push_back(std::move(Case));
      if (!accept(TK::Bar))
        break;
    }
  }
  if (Failed)
    return nullptr;
  D->Span = SourceSpan(Start, prevEnd());
  return D;
}

DeclPtr ParserImpl::parseExceptionDecl() {
  SourceLoc Start = peek().Loc;
  expect(TK::KwException, "'exception'");
  auto D = std::make_shared<Decl>(Decl::Kind::Exception);
  if (!check(TK::UpperIdent)) {
    fail("expected an exception name");
    return nullptr;
  }
  D->ExcName = advance().Text;
  if (accept(TK::KwOf)) {
    D->ExcArgType = parseTypeExpr();
    if (Failed)
      return nullptr;
  }
  D->Span = SourceSpan(Start, prevEnd());
  return D;
}

DeclPtr ParserImpl::parseLetDecl() {
  SourceLoc Start = peek().Loc;
  expect(TK::KwLet, "'let'");
  auto D = std::make_shared<Decl>(Decl::Kind::Let);
  D->IsRec = accept(TK::KwRec);
  D->Binding = parseSimplePattern();
  if (Failed)
    return nullptr;
  // Function sugar: let f p1 ... pn = rhs.
  Nesting Levels(*this);
  if (D->Binding->kind() == Pattern::Kind::Var)
    D->Params = parseParams(TK::Eq, Levels);
  expect(TK::Eq, "'=' in let binding");
  D->Rhs = parseExpr();
  if (Failed)
    return nullptr;
  D->Span = SourceSpan(Start, prevEnd());
  return D;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

bool ParserImpl::startsKeywordForm() const {
  switch (peek().TheKind) {
  case TK::KwFun:
  case TK::KwIf:
  case TK::KwMatch:
  case TK::KwLet:
  case TK::KwRaise:
    return true;
  default:
    return false;
  }
}

bool ParserImpl::startsAtom() const { return isAtomStart(peek()); }

ExprPtr ParserImpl::parseExpr() {
  if (Failed)
    return nullptr;
  SourceLoc Start = peek().Loc;
  ExprPtr First = parseTupleExpr();
  if (Failed)
    return nullptr;
  if (!check(TK::Semi))
    return First;
  advance();
  Nesting Level(*this);
  if (!Level.deeper())
    return nullptr;
  ExprPtr Rest = parseExpr();
  if (Failed)
    return nullptr;
  ExprPtr E = makeSeq(std::move(First), std::move(Rest));
  setSpan(E.get(), Start);
  return E;
}

ExprPtr ParserImpl::parseTupleExpr() {
  // Every nested expression (parenthesized, bracketed, a record field, a
  // branch or body of a keyword form) is parsed from here.
  Nesting Level(*this);
  if (Failed || !Level.deeper())
    return nullptr;
  SourceLoc Start = peek().Loc;
  ExprPtr First = parseAssignExpr();
  if (Failed || !check(TK::Comma))
    return First;
  std::vector<ExprPtr> Elems;
  Elems.push_back(std::move(First));
  while (accept(TK::Comma)) {
    Elems.push_back(parseAssignExpr());
    if (Failed)
      return nullptr;
  }
  ExprPtr E = makeTuple(std::move(Elems));
  setSpan(E.get(), Start);
  return E;
}

ExprPtr ParserImpl::parseAssignExpr() {
  if (Failed)
    return nullptr;
  SourceLoc Start = peek().Loc;
  ExprPtr Lhs = parseBinaryExpr(LevelOr);
  if (Failed)
    return nullptr;
  Nesting Level(*this);
  if (accept(TK::Assign)) {
    if (!Level.deeper())
      return nullptr;
    ExprPtr Rhs = parseAssignExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeBinOp(":=", std::move(Lhs), std::move(Rhs));
    setSpan(E.get(), Start);
    return E;
  }
  if (check(TK::LArrow)) {
    if (Lhs->kind() != Expr::Kind::Field) {
      fail("'<-' requires a field access on its left-hand side");
      return nullptr;
    }
    advance();
    if (!Level.deeper())
      return nullptr;
    ExprPtr Rhs = parseAssignExpr();
    if (Failed)
      return nullptr;
    // Rebuild the field access as a SetField node.
    std::string Field = Lhs->Name;
    ExprPtr Rec = Lhs->swapChild(0, makeWildcard());
    ExprPtr E = makeSetField(std::move(Rec), Field, std::move(Rhs));
    setSpan(E.get(), Start);
    return E;
  }
  return Lhs;
}

ExprPtr ParserImpl::parseBinaryExpr(int MinLevel) {
  if (Failed)
    return nullptr;
  SourceLoc Start = peek().Loc;
  ExprPtr Lhs = parseUnaryExpr();
  // One call meets its operators loosest-last: a tighter one belongs to a
  // right operand's call. Each operator round enters a level that is
  // held while the chain's later operands parse, and a looser operator
  // releases the tighter rounds before it, so the count is what a
  // production per level, each holding its own rounds until it
  // returned, would hold.
  Nesting Rounds(*this);
  int Current = NumOperatorLevels;
  while (!Failed) {
    const Token &Op = peek();
    const BinaryOperator *Info = binaryOperator(Op);
    // `:=`, the loosest, is parseAssignExpr's.
    if (!Info || Info->Level < MinLevel)
      break;
    const int Level = Info->Level;
    advance();
    if (Level < Current) {
      Rounds.release();
      Current = Level;
    }
    if (!Rounds.deeper())
      return nullptr;
    // A right-associative operator's right operand takes the rest of its
    // chain; a left-associative one's stops at the next operator of its
    // level.
    ExprPtr Rhs = parseBinaryExpr(Info->RightAssoc ? Level : Level + 1);
    if (Failed)
      return nullptr;
    if (Level == LevelCons)
      Lhs = makeCons(std::move(Lhs), std::move(Rhs));
    else
      Lhs = makeBinOp(std::string(Op.Text), std::move(Lhs), std::move(Rhs));
    setSpan(Lhs.get(), Start);
  }
  return Lhs;
}

ExprPtr ParserImpl::parseUnaryExpr() {
  if (Failed)
    return nullptr;
  SourceLoc Start = peek().Loc;
  Nesting Level(*this);
  if ((check(TK::Minus) || check(TK::KwNot) || check(TK::Bang)) &&
      !Level.deeper())
    return nullptr;
  if (accept(TK::Minus)) {
    ExprPtr Operand = parseUnaryExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeUnaryOp("-", std::move(Operand));
    setSpan(E.get(), Start);
    return E;
  }
  if (accept(TK::KwNot)) {
    ExprPtr Operand = parseUnaryExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeUnaryOp("not", std::move(Operand));
    setSpan(E.get(), Start);
    return E;
  }
  if (accept(TK::Bang)) {
    ExprPtr Operand = parseUnaryExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeUnaryOp("!", std::move(Operand));
    setSpan(E.get(), Start);
    return E;
  }
  return parseAppExpr();
}

ExprPtr ParserImpl::parseAppExpr() {
  if (Failed)
    return nullptr;
  if (startsKeywordForm())
    return parseKeywordForm();
  SourceLoc Start = peek().Loc;
  ExprPtr Callee = parsePostfixExpr();
  if (Failed)
    return nullptr;
  if (!startsAtom())
    return Callee;
  // Constructor application: C e applies a variant constructor to one
  // argument; anything else is curried function application.
  if (Callee->kind() == Expr::Kind::Constr && Callee->Children.empty()) {
    ExprPtr Arg = parsePostfixExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeConstr(Callee->Name, std::move(Arg));
    setSpan(E.get(), Start);
    return E;
  }
  std::vector<ExprPtr> Args;
  Nesting Levels(*this);
  while (startsAtom() && !Failed) {
    if (!Args.empty() && !Levels.deeper())
      return nullptr;
    Args.push_back(parsePostfixExpr());
    if (Failed)
      return nullptr;
  }
  ExprPtr E = makeApp(std::move(Callee), std::move(Args));
  setSpan(E.get(), Start);
  return E;
}

ExprPtr ParserImpl::parsePostfixExpr() {
  if (Failed)
    return nullptr;
  SourceLoc Start = peek().Loc;
  ExprPtr E = parseAtomExpr();
  Nesting Levels(*this);
  while (!Failed && check(TK::Dot)) {
    if (!Levels.deeper())
      return nullptr;
    advance();
    if (!check(TK::LowerIdent)) {
      fail("expected a field name after '.'");
      return nullptr;
    }
    std::string Field(advance().Text);
    E = makeFieldAccess(std::move(E), Field);
    setSpan(E.get(), Start);
  }
  return E;
}

ExprPtr ParserImpl::parseKeywordForm() {
  SourceLoc Start = peek().Loc;
  if (accept(TK::KwFun)) {
    Nesting Levels(*this);
    std::vector<PatternPtr> Params = parseParams(TK::Arrow, Levels);
    if (Params.empty())
      fail("'fun' requires at least one parameter");
    expect(TK::Arrow, "'->' after fun parameters");
    ExprPtr Body = parseExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeFun(std::move(Params), std::move(Body));
    setSpan(E.get(), Start);
    return E;
  }
  if (accept(TK::KwIf)) {
    ExprPtr Cond = parseExpr();
    expect(TK::KwThen, "'then'");
    ExprPtr Then = parseTupleExpr();
    ExprPtr Else;
    if (accept(TK::KwElse))
      Else = parseTupleExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeIf(std::move(Cond), std::move(Then), std::move(Else));
    setSpan(E.get(), Start);
    return E;
  }
  if (accept(TK::KwMatch)) {
    ExprPtr Scrutinee = parseExpr();
    expect(TK::KwWith, "'with'");
    accept(TK::Bar);
    std::vector<MatchArm> Arms;
    while (!Failed) {
      MatchArm Arm;
      Arm.Pat = parsePattern();
      expect(TK::Arrow, "'->' after match pattern");
      Arm.Body = parseExpr();
      if (Failed)
        return nullptr;
      Arms.push_back(std::move(Arm));
      if (!accept(TK::Bar))
        break;
    }
    if (Failed)
      return nullptr;
    ExprPtr E = makeMatch(std::move(Scrutinee), std::move(Arms));
    setSpan(E.get(), Start);
    return E;
  }
  if (accept(TK::KwLet)) {
    bool IsRec = accept(TK::KwRec);
    PatternPtr Binding = parseSimplePattern();
    if (Failed)
      return nullptr;
    std::vector<PatternPtr> Params;
    Nesting Levels(*this);
    if (Binding->kind() == Pattern::Kind::Var)
      Params = parseParams(TK::Eq, Levels);
    expect(TK::Eq, "'=' in let binding");
    ExprPtr Rhs = parseExpr();
    expect(TK::KwIn, "'in' after let binding");
    ExprPtr Body = parseExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeLet(IsRec, std::move(Binding), std::move(Params),
                        std::move(Rhs), std::move(Body));
    setSpan(E.get(), Start);
    return E;
  }
  if (accept(TK::KwRaise)) {
    // The operand is an atom, which may itself be a keyword form.
    Nesting Level(*this);
    if (!Level.deeper())
      return nullptr;
    ExprPtr Operand = parsePostfixExpr();
    if (Failed)
      return nullptr;
    ExprPtr E = makeRaise(std::move(Operand));
    setSpan(E.get(), Start);
    return E;
  }
  fail("expected an expression but found " + peek().describe());
  return nullptr;
}

ExprPtr ParserImpl::parseAtomExpr() {
  if (Failed)
    return nullptr;
  if (startsKeywordForm())
    return parseKeywordForm();
  SourceLoc Start = peek().Loc;
  switch (peek().TheKind) {
  case TK::IntLit: {
    ExprPtr E = makeIntLit(advance().IntValue);
    setSpan(E.get(), Start);
    return E;
  }
  case TK::StringLit: {
    ExprPtr E = makeStringLit(decodeStringLiteral(advance().Text));
    setSpan(E.get(), Start);
    return E;
  }
  case TK::KwTrue:
  case TK::KwFalse: {
    ExprPtr E = makeBoolLit(advance().is(TK::KwTrue));
    setSpan(E.get(), Start);
    return E;
  }
  case TK::LowerIdent: {
    std::string Name(advance().Text);
    // Module paths: List.map lexes as ident-dot-ident but Name should be
    // the qualified form -- except our LowerIdent can't start a path in
    // mini-Caml (modules are capitalized), so plain variable.
    ExprPtr E = makeVar(Name);
    setSpan(E.get(), Start);
    return E;
  }
  case TK::UpperIdent: {
    std::string Name(advance().Text);
    // Qualified name (module access): List.map, String.length.
    if (check(TK::Dot) && peek(1).is(TK::LowerIdent)) {
      advance(); // .
      Name += '.';
      Name += advance().Text;
      ExprPtr E = makeVar(Name);
      setSpan(E.get(), Start);
      return E;
    }
    ExprPtr E = makeConstr(Name, nullptr);
    setSpan(E.get(), Start);
    return E;
  }
  case TK::LParen: {
    advance();
    if (accept(TK::RParen)) {
      ExprPtr E = makeUnitLit();
      setSpan(E.get(), Start);
      return E;
    }
    ExprPtr E = parseExpr();
    expect(TK::RParen, "')'");
    if (Failed)
      return nullptr;
    // Keep the parenthesized extent so messages quote what the user wrote.
    E->Span = SourceSpan(Start, prevEnd());
    return E;
  }
  case TK::KwBegin: {
    advance();
    ExprPtr E = parseExpr();
    expect(TK::KwEnd, "'end'");
    if (Failed)
      return nullptr;
    E->Span = SourceSpan(Start, prevEnd());
    return E;
  }
  case TK::LBracket: {
    advance();
    std::vector<ExprPtr> Elems;
    if (!check(TK::RBracket)) {
      while (!Failed) {
        Elems.push_back(parseTupleExpr());
        if (!accept(TK::Semi))
          break;
        if (check(TK::RBracket))
          break; // allow trailing ';'
      }
    }
    expect(TK::RBracket, "']'");
    if (Failed)
      return nullptr;
    ExprPtr E = makeList(std::move(Elems));
    setSpan(E.get(), Start);
    return E;
  }
  case TK::LBrace: {
    advance();
    std::vector<RecordField> Fields;
    while (!Failed) {
      if (!check(TK::LowerIdent)) {
        fail("expected a field name in record literal");
        return nullptr;
      }
      RecordField Field;
      Field.Name = advance().Text;
      expect(TK::Eq, "'=' in record field");
      Field.Value = parseTupleExpr();
      if (Failed)
        return nullptr;
      Fields.push_back(std::move(Field));
      if (accept(TK::Semi)) {
        if (check(TK::RBrace))
          break;
        continue;
      }
      break;
    }
    expect(TK::RBrace, "'}'");
    if (Failed)
      return nullptr;
    ExprPtr E = makeRecord(std::move(Fields));
    setSpan(E.get(), Start);
    return E;
  }
  default:
    fail("expected an expression but found " + peek().describe());
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

std::vector<PatternPtr> ParserImpl::parseParams(TK End, Nesting &Levels) {
  std::vector<PatternPtr> Params;
  while (!check(End) && !Failed) {
    if (!Params.empty() && !Levels.deeper())
      break;
    Params.push_back(parseAtomPattern());
  }
  return Params;
}

PatternPtr ParserImpl::parsePattern() {
  // Every parenthesized pattern is parsed from here.
  Nesting Level(*this);
  if (Failed || !Level.deeper())
    return nullptr;
  SourceLoc Start = peek().Loc;
  PatternPtr First = parseConsPattern();
  if (Failed || !check(TK::Comma))
    return First;
  std::vector<PatternPtr> Elems;
  Elems.push_back(std::move(First));
  while (accept(TK::Comma)) {
    Elems.push_back(parseConsPattern());
    if (Failed)
      return nullptr;
  }
  PatternPtr P = makeTuplePattern(std::move(Elems));
  setSpan(P.get(), Start);
  return P;
}

PatternPtr ParserImpl::parseConsPattern() {
  if (Failed)
    return nullptr;
  SourceLoc Start = peek().Loc;
  PatternPtr Head = parseSimplePattern();
  if (Failed || !check(TK::ColonColon))
    return Head;
  advance();
  Nesting Level(*this);
  if (!Level.deeper())
    return nullptr;
  PatternPtr Tail = parseConsPattern(); // right associative
  if (Failed)
    return nullptr;
  PatternPtr P = makeConsPattern(std::move(Head), std::move(Tail));
  setSpan(P.get(), Start);
  return P;
}

PatternPtr ParserImpl::parseSimplePattern() {
  if (Failed)
    return nullptr;
  SourceLoc Start = peek().Loc;
  if (check(TK::UpperIdent)) {
    std::string Name(advance().Text);
    PatternPtr Arg;
    if (isAtomStart(peek()) || check(TK::Underscore))
      Arg = parseAtomPattern();
    if (Failed)
      return nullptr;
    PatternPtr P = makeConstrPattern(Name, std::move(Arg));
    setSpan(P.get(), Start);
    return P;
  }
  return parseAtomPattern();
}

PatternPtr ParserImpl::parseAtomPattern() {
  if (Failed)
    return nullptr;
  SourceLoc Start = peek().Loc;
  switch (peek().TheKind) {
  case TK::Underscore: {
    advance();
    PatternPtr P = makeWildPattern();
    setSpan(P.get(), Start);
    return P;
  }
  case TK::LowerIdent: {
    PatternPtr P = makeVarPattern(std::string(advance().Text));
    setSpan(P.get(), Start);
    return P;
  }
  case TK::UpperIdent: {
    PatternPtr P =
        makeConstrPattern(std::string(advance().Text), nullptr);
    setSpan(P.get(), Start);
    return P;
  }
  case TK::IntLit: {
    PatternPtr P = makeIntPattern(advance().IntValue);
    setSpan(P.get(), Start);
    return P;
  }
  case TK::Minus: {
    advance();
    if (!check(TK::IntLit)) {
      fail("expected an integer literal after '-' in pattern");
      return nullptr;
    }
    PatternPtr P = makeIntPattern(-advance().IntValue);
    setSpan(P.get(), Start);
    return P;
  }
  case TK::StringLit: {
    PatternPtr P = makeStringPattern(decodeStringLiteral(advance().Text));
    setSpan(P.get(), Start);
    return P;
  }
  case TK::KwTrue:
  case TK::KwFalse: {
    PatternPtr P = makeBoolPattern(advance().is(TK::KwTrue));
    setSpan(P.get(), Start);
    return P;
  }
  case TK::LParen: {
    advance();
    if (accept(TK::RParen)) {
      PatternPtr P = makeUnitPattern();
      setSpan(P.get(), Start);
      return P;
    }
    PatternPtr P = parsePattern();
    expect(TK::RParen, "')' in pattern");
    if (Failed)
      return nullptr;
    P->Span = SourceSpan(Start, prevEnd());
    return P;
  }
  case TK::LBracket: {
    advance();
    Nesting Level(*this);
    if (!Level.deeper())
      return nullptr;
    std::vector<PatternPtr> Elems;
    if (!check(TK::RBracket)) {
      while (!Failed) {
        Elems.push_back(parseConsPattern());
        if (!accept(TK::Semi))
          break;
      }
    }
    expect(TK::RBracket, "']' in pattern");
    if (Failed)
      return nullptr;
    PatternPtr P = makeListPattern(std::move(Elems));
    setSpan(P.get(), Start);
    return P;
  }
  default:
    fail("expected a pattern but found " + peek().describe());
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Type expressions
//===----------------------------------------------------------------------===//

TypeExprPtr ParserImpl::parseTypeExpr() {
  // Parenthesized types and arrow results are parsed from here.
  Nesting Level(*this);
  if (Failed || !Level.deeper())
    return nullptr;
  TypeExprPtr From = parseTupleTypeExpr();
  if (Failed || !check(TK::Arrow))
    return From;
  advance();
  TypeExprPtr To = parseTypeExpr(); // right associative
  if (Failed)
    return nullptr;
  return makeArrowTypeExpr(std::move(From), std::move(To));
}

TypeExprPtr ParserImpl::parseTupleTypeExpr() {
  if (Failed)
    return nullptr;
  TypeExprPtr First = parsePostfixTypeExpr();
  if (Failed || !check(TK::Star))
    return First;
  std::vector<TypeExprPtr> Elems;
  Elems.push_back(std::move(First));
  while (accept(TK::Star)) {
    Elems.push_back(parsePostfixTypeExpr());
    if (Failed)
      return nullptr;
  }
  return makeTupleTypeExpr(std::move(Elems));
}

TypeExprPtr ParserImpl::parsePostfixTypeExpr() {
  if (Failed)
    return nullptr;
  TypeExprPtr T = parseAtomTypeExpr();
  // Postfix constructor application: int list, 'a list ref.
  Nesting Levels(*this);
  while (!Failed && check(TK::LowerIdent)) {
    if (!Levels.deeper())
      return nullptr;
    std::string Name(advance().Text);
    std::vector<TypeExprPtr> Args;
    Args.push_back(std::move(T));
    T = makeTypeNameExpr(Name, std::move(Args));
  }
  return T;
}

TypeExprPtr ParserImpl::parseAtomTypeExpr() {
  if (Failed)
    return nullptr;
  if (accept(TK::Quote)) {
    if (!check(TK::LowerIdent)) {
      fail("expected a type variable name after '");
      return nullptr;
    }
    return makeTypeVarExpr(std::string(advance().Text));
  }
  if (check(TK::LowerIdent))
    return makeTypeNameExpr(std::string(advance().Text), {});
  if (accept(TK::LParen)) {
    TypeExprPtr First = parseTypeExpr();
    if (Failed)
      return nullptr;
    if (accept(TK::Comma)) {
      // Multi-argument constructor application: ('a, 'b) pair.
      std::vector<TypeExprPtr> Args;
      Args.push_back(std::move(First));
      while (true) {
        Args.push_back(parseTypeExpr());
        if (Failed)
          return nullptr;
        if (!accept(TK::Comma))
          break;
      }
      expect(TK::RParen, "')' in type");
      if (!check(TK::LowerIdent)) {
        fail("expected a type constructor after ')'");
        return nullptr;
      }
      return makeTypeNameExpr(std::string(advance().Text), std::move(Args));
    }
    expect(TK::RParen, "')' in type");
    if (Failed)
      return nullptr;
    return First;
  }
  fail("expected a type but found " + peek().describe());
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

ParseExprResult ParserImpl::parseSingleExpression() {
  ParseExprResult Result;
  ExprPtr E = parseExpr();
  if (!Failed && !check(TK::Eof))
    fail("unexpected " + peek().describe() + " after expression");
  if (Failed) {
    Result.Error = Error;
    return Result;
  }
  Result.E = std::move(E);
  return Result;
}

TypeExprPtr ParserImpl::parseSingleTypeExpr(std::optional<ParseError> &OutError) {
  TypeExprPtr T = parseTypeExpr();
  if (!Failed && !check(TK::Eof))
    fail("unexpected " + peek().describe() + " after type");
  if (Failed) {
    OutError = Error;
    return nullptr;
  }
  return T;
}

ParseResult caml::parseProgram(const std::string &Source) {
  Lexer Lex(Source);
  ParserImpl P(Lex.tokenize());
  return P.parseProgram();
}

ParseExprResult caml::parseExpression(const std::string &Source) {
  Lexer Lex(Source);
  ParserImpl P(Lex.tokenize());
  return P.parseSingleExpression();
}

TypeExprPtr caml::parseTypeSignature(const std::string &Source,
                                     std::optional<ParseError> &Error) {
  Lexer Lex(Source);
  ParserImpl P(Lex.tokenize());
  return P.parseSingleTypeExpr(Error);
}
