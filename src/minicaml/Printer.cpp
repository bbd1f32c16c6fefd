//===- Printer.cpp - Mini-Caml pretty printer implementation --------------==//

#include "minicaml/Printer.h"

#include "support/StrUtil.h"

#include <charconv>

using namespace seminal;
using namespace seminal::caml;

namespace {

/// Precedence levels. Higher binds tighter; a binary operator's is
/// PrecBinary plus its OperatorLevel (Ast.h), which the parser reads too.
enum Prec : int {
  PrecSeq = 0,
  PrecKeyword = 1, // fun/if/match/let-in/raise bodies extend right
  PrecTuple = 2,
  PrecBinary = 3,
  PrecAssign = PrecBinary + LevelAssign,
  PrecCons = PrecBinary + LevelCons,
  PrecUnary = PrecBinary + NumOperatorLevels,
  PrecApp,
  PrecField,
  PrecAtom,
};

/// The printer's emitters: each appends one node's concrete syntax to the
/// one output string, so a whole declaration prints into one buffer.
class Emitter {
public:
  explicit Emitter(std::string &Out) : Out(Out) {}

  /// Emits \p E, in parentheses if its own precedence is lower than
  /// \p MinPrec.
  void expr(const Expr &E, int MinPrec);
  void pattern(const Pattern &P);
  void type(const TypeExpr &T);
  void decl(const Decl &D);

private:
  void integer(long Value) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr);
  }
  void stringLiteral(const std::string &Value) {
    Out += '"';
    Out += escapeStringLiteral(Value);
    Out += '"';
  }
  /// Emits each element of \p List with \p Each, \p Sep between them.
  template <typename Elements, typename Fn>
  void joined(const Elements &List, const char *Sep, Fn Each) {
    for (size_t I = 0; I < List.size(); ++I) {
      if (I > 0)
        Out += Sep;
      Each(List[I]);
    }
  }
  void params(const std::vector<PatternPtr> &Params);
  /// Emits \p P in parentheses when \p Paren holds.
  void pattern(const Pattern &P, bool Paren) {
    if (Paren)
      Out += '(';
    pattern(P);
    if (Paren)
      Out += ')';
  }
  /// Emits \p T in parentheses when it is an arrow, or when \p TupleToo
  /// holds and it is a tuple.
  void typeOperand(const TypeExpr &T, bool TupleToo);

  std::string &Out;
};

void Emitter::params(const std::vector<PatternPtr> &Params) {
  joined(Params, " ", [this](const PatternPtr &Param) {
    // Non-atomic parameter patterns need parens: fun (x, y) -> ...
    // (tuples and lists bracket themselves).
    Pattern::Kind K = Param->kind();
    bool Atomic = K == Pattern::Kind::Wild || K == Pattern::Kind::Var ||
                  K == Pattern::Kind::Unit || K == Pattern::Kind::Int ||
                  K == Pattern::Kind::Bool || K == Pattern::Kind::String ||
                  K == Pattern::Kind::List || K == Pattern::Kind::Tuple;
    pattern(*Param, !Atomic);
  });
}

void Emitter::expr(const Expr &E, int MinPrec) {
  // The node's own precedence; atoms never need parentheses.
  int Own = PrecAtom;
  const BinaryOperator *Op = nullptr; // A BinOp's.
  switch (E.kind()) {
  case Expr::Kind::IntLit:
    if (E.IntValue < 0)
      Own = PrecUnary;
    break;
  case Expr::Kind::Adapt:
  case Expr::Kind::App:
  case Expr::Kind::Raise:
    Own = PrecApp;
    break;
  case Expr::Kind::Constr:
    if (!E.Children.empty())
      Own = PrecApp;
    break;
  case Expr::Kind::Fun:
  case Expr::Kind::Let:
  case Expr::Kind::If:
  case Expr::Kind::Match:
    Own = PrecKeyword;
    break;
  case Expr::Kind::Cons:
    Own = PrecCons;
    break;
  case Expr::Kind::BinOp:
    Op = findBinaryOperator(E.Name);
    Own = PrecBinary + int(Op ? Op->Level : LevelCompare);
    break;
  case Expr::Kind::UnaryOp:
    Own = PrecUnary;
    break;
  case Expr::Kind::Seq:
    Own = PrecSeq;
    break;
  case Expr::Kind::SetField:
    Own = PrecAssign;
    break;
  default:
    break;
  }
  const bool Paren = Own < MinPrec;
  if (Paren)
    Out += '(';

  switch (E.kind()) {
  case Expr::Kind::IntLit:
    integer(E.IntValue);
    break;
  case Expr::Kind::BoolLit:
    Out += E.BoolValue ? "true" : "false";
    break;
  case Expr::Kind::StringLit:
    stringLiteral(E.StringValue);
    break;
  case Expr::Kind::UnitLit:
    Out += "()";
    break;
  case Expr::Kind::Var:
    Out += E.Name;
    break;
  case Expr::Kind::Wildcard:
    Out += "[[...]]";
    break;
  case Expr::Kind::Adapt:
    Out += "adapt ";
    expr(*E.child(0), PrecField);
    break;
  case Expr::Kind::Fun:
    Out += "fun ";
    params(E.Params);
    Out += " -> ";
    expr(*E.child(0), PrecKeyword);
    break;
  case Expr::Kind::App:
    joined(E.Children, " ",
           [this](const ExprPtr &C) { expr(*C, PrecField); });
    break;
  case Expr::Kind::Let:
    Out += E.IsRec ? "let rec " : "let ";
    pattern(*E.Binding);
    if (!E.Params.empty()) {
      Out += ' ';
      params(E.Params);
    }
    Out += " = ";
    expr(*E.child(0), PrecKeyword);
    Out += " in ";
    expr(*E.child(1), PrecSeq);
    break;
  case Expr::Kind::If:
    Out += "if ";
    expr(*E.child(0), PrecKeyword);
    Out += " then ";
    expr(*E.child(1), PrecTuple + 1);
    if (E.numChildren() == 3) {
      Out += " else ";
      expr(*E.child(2), PrecTuple + 1);
    }
    break;
  case Expr::Kind::Tuple:
    // Tuples are always printed with parentheses for readability; OCaml
    // programmers overwhelmingly write them that way.
    Out += '(';
    joined(E.Children, ", ",
           [this](const ExprPtr &C) { expr(*C, PrecAssign); });
    Out += ')';
    break;
  case Expr::Kind::List:
    Out += '[';
    joined(E.Children, "; ",
           [this](const ExprPtr &C) { expr(*C, PrecTuple); });
    Out += ']';
    break;
  case Expr::Kind::Cons:
    expr(*E.child(0), PrecCons + 1);
    Out += " :: ";
    expr(*E.child(1), PrecCons);
    break;
  case Expr::Kind::BinOp: {
    const bool RightAssoc = Op && Op->RightAssoc;
    expr(*E.child(0), RightAssoc ? Own + 1 : Own);
    Out += ' ';
    Out += E.Name;
    Out += ' ';
    expr(*E.child(1), RightAssoc ? Own : Own + 1);
    break;
  }
  case Expr::Kind::UnaryOp:
    Out += E.Name;
    if (E.Name == "not")
      Out += ' ';
    expr(*E.child(0), PrecUnary);
    break;
  case Expr::Kind::Match:
    Out += "match ";
    expr(*E.child(0), PrecKeyword);
    Out += " with ";
    for (unsigned I = 1; I < E.numChildren(); ++I) {
      if (I > 1)
        Out += " | ";
      pattern(*E.ArmPats[I - 1]);
      Out += " -> ";
      // A keyword form (match/fun/let/if) in a non-final arm body would
      // swallow the remaining arms when re-parsed; parenthesize it.
      bool LastArm = I + 1 == E.numChildren();
      expr(*E.child(I), LastArm ? PrecKeyword : PrecKeyword + 1);
    }
    break;
  case Expr::Kind::Constr:
    Out += E.Name;
    if (!E.Children.empty()) {
      Out += ' ';
      expr(*E.child(0), PrecField);
    }
    break;
  case Expr::Kind::Seq:
    expr(*E.child(0), PrecTuple);
    Out += "; ";
    expr(*E.child(1), PrecSeq);
    break;
  case Expr::Kind::Raise:
    Out += "raise ";
    expr(*E.child(0), PrecField);
    break;
  case Expr::Kind::Field:
    expr(*E.child(0), PrecField);
    Out += '.';
    Out += E.Name;
    break;
  case Expr::Kind::SetField:
    expr(*E.child(0), PrecField);
    Out += '.';
    Out += E.Name;
    Out += " <- ";
    expr(*E.child(1), PrecAssign);
    break;
  case Expr::Kind::Record:
    Out += "{ ";
    for (unsigned I = 0; I < E.numChildren(); ++I) {
      if (I > 0)
        Out += "; ";
      Out += E.FieldNames[I];
      Out += " = ";
      expr(*E.child(I), PrecTuple);
    }
    Out += " }";
    break;
  }

  if (Paren)
    Out += ')';
}

void Emitter::pattern(const Pattern &P) {
  switch (P.kind()) {
  case Pattern::Kind::Wild:
    Out += '_';
    return;
  case Pattern::Kind::Var:
    Out += P.Name;
    return;
  case Pattern::Kind::Int:
    integer(P.IntValue);
    return;
  case Pattern::Kind::Bool:
    Out += P.BoolValue ? "true" : "false";
    return;
  case Pattern::Kind::String:
    stringLiteral(P.StringValue);
    return;
  case Pattern::Kind::Unit:
    Out += "()";
    return;
  case Pattern::Kind::Tuple:
  case Pattern::Kind::List: {
    const bool Tuple = P.kind() == Pattern::Kind::Tuple;
    Out += Tuple ? '(' : '[';
    joined(P.Elems, Tuple ? ", " : "; ",
           [this](const PatternPtr &Elem) { pattern(*Elem); });
    Out += Tuple ? ')' : ']';
    return;
  }
  case Pattern::Kind::Cons:
    pattern(*P.Head, P.Head->kind() == Pattern::Kind::Cons);
    Out += " :: ";
    pattern(*P.Tail);
    return;
  case Pattern::Kind::Constr:
    Out += P.Name;
    if (P.Arg) {
      Out += ' ';
      pattern(*P.Arg, P.Arg->kind() == Pattern::Kind::Cons ||
                          P.Arg->kind() == Pattern::Kind::Constr);
    }
    return;
  }
}

void Emitter::typeOperand(const TypeExpr &T, bool TupleToo) {
  bool Paren = T.TheKind == TypeExpr::Kind::Arrow ||
               (TupleToo && T.TheKind == TypeExpr::Kind::Tuple);
  if (Paren)
    Out += '(';
  type(T);
  if (Paren)
    Out += ')';
}

void Emitter::type(const TypeExpr &T) {
  switch (T.TheKind) {
  case TypeExpr::Kind::Var:
    Out += '\'';
    Out += T.Name;
    return;
  case TypeExpr::Kind::Name:
    if (T.Args.size() == 1) {
      typeOperand(*T.Args[0], /*TupleToo=*/true);
      Out += ' ';
    } else if (T.Args.size() > 1) {
      Out += '(';
      joined(T.Args, ", ", [this](const TypeExprPtr &Arg) { type(*Arg); });
      Out += ") ";
    }
    Out += T.Name;
    return;
  case TypeExpr::Kind::Arrow:
    typeOperand(*T.Args[0], /*TupleToo=*/false);
    Out += " -> ";
    type(*T.Args[1]);
    return;
  case TypeExpr::Kind::Tuple:
    joined(T.Args, " * ", [this](const TypeExprPtr &Arg) {
      typeOperand(*Arg, /*TupleToo=*/true);
    });
    return;
  }
}

void Emitter::decl(const Decl &D) {
  switch (D.kind()) {
  case Decl::Kind::Let:
    Out += D.IsRec ? "let rec " : "let ";
    pattern(*D.Binding);
    if (!D.Params.empty()) {
      Out += ' ';
      params(D.Params);
    }
    Out += " = ";
    expr(*D.Rhs, PrecSeq);
    return;
  case Decl::Kind::Type:
    Out += "type ";
    if (D.TypeParams.size() == 1) {
      Out += '\'';
      Out += D.TypeParams[0];
      Out += ' ';
    } else if (D.TypeParams.size() > 1) {
      Out += '(';
      joined(D.TypeParams, ", ", [this](const std::string &Param) {
        Out += '\'';
        Out += Param;
      });
      Out += ") ";
    }
    Out += D.TypeName;
    Out += " = ";
    if (D.IsRecord) {
      Out += "{ ";
      joined(D.Fields, "; ", [this](const RecordFieldDecl &Field) {
        if (Field.IsMutable)
          Out += "mutable ";
        Out += Field.Name;
        Out += " : ";
        type(*Field.Type);
      });
      Out += " }";
    } else {
      joined(D.Cases, " | ", [this](const VariantCase &Case) {
        Out += Case.Name;
        if (Case.ArgType) {
          Out += " of ";
          type(*Case.ArgType);
        }
      });
    }
    return;
  case Decl::Kind::Exception:
    Out += "exception ";
    Out += D.ExcName;
    if (D.ExcArgType) {
      Out += " of ";
      type(*D.ExcArgType);
    }
    return;
  }
}

} // namespace

std::string caml::printExpr(const Expr &E) {
  std::string Out;
  Emitter(Out).expr(E, PrecSeq);
  return Out;
}

std::string caml::printDecl(const Decl &D) {
  std::string Out;
  Emitter(Out).decl(D);
  return Out;
}

std::string caml::printProgram(const Program &Prog) {
  std::string Out;
  Emitter Emit(Out);
  for (const auto &D : Prog.Decls) {
    Emit.decl(*D);
    Out += '\n';
  }
  return Out;
}

std::string Pattern::str() const {
  std::string Out;
  Emitter(Out).pattern(*this);
  return Out;
}

std::string TypeExpr::str() const {
  std::string Out;
  Emitter(Out).type(*this);
  return Out;
}
