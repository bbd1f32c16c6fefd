//===- Ast.cpp - Mini-Caml abstract syntax implementation -----------------==//

#include "minicaml/Ast.h"

#include <sstream>

using namespace seminal;
using namespace seminal::caml;

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

PatternPtr Pattern::clone() const {
  auto Copy = std::make_unique<Pattern>(TheKind);
  Copy->Span = Span;
  Copy->Name = Name;
  Copy->IntValue = IntValue;
  Copy->BoolValue = BoolValue;
  Copy->StringValue = StringValue;
  Copy->Elems.reserve(Elems.size());
  for (const auto &Elem : Elems)
    Copy->Elems.push_back(Elem->clone());
  if (Head)
    Copy->Head = Head->clone();
  if (Tail)
    Copy->Tail = Tail->clone();
  if (Arg)
    Copy->Arg = Arg->clone();
  return Copy;
}

bool Pattern::equals(const Pattern &Other) const {
  if (TheKind != Other.TheKind)
    return false;
  switch (TheKind) {
  case Kind::Wild:
  case Kind::Unit:
    return true;
  case Kind::Var:
  case Kind::Constr:
    if (Name != Other.Name)
      return false;
    if ((Arg == nullptr) != (Other.Arg == nullptr))
      return false;
    return !Arg || Arg->equals(*Other.Arg);
  case Kind::Int:
    return IntValue == Other.IntValue;
  case Kind::Bool:
    return BoolValue == Other.BoolValue;
  case Kind::String:
    return StringValue == Other.StringValue;
  case Kind::Tuple:
  case Kind::List: {
    if (Elems.size() != Other.Elems.size())
      return false;
    for (size_t I = 0; I < Elems.size(); ++I)
      if (!Elems[I]->equals(*Other.Elems[I]))
        return false;
    return true;
  }
  case Kind::Cons:
    return Head->equals(*Other.Head) && Tail->equals(*Other.Tail);
  }
  return false;
}

unsigned Pattern::size() const {
  unsigned N = 1;
  for (const auto &Elem : Elems)
    N += Elem->size();
  if (Head)
    N += Head->size();
  if (Tail)
    N += Tail->size();
  if (Arg)
    N += Arg->size();
  return N;
}

void Pattern::boundVars(std::vector<std::string> &Out) const {
  switch (TheKind) {
  case Kind::Var:
    Out.push_back(Name);
    return;
  case Kind::Tuple:
  case Kind::List:
    for (const auto &Elem : Elems)
      Elem->boundVars(Out);
    return;
  case Kind::Cons:
    Head->boundVars(Out);
    Tail->boundVars(Out);
    return;
  case Kind::Constr:
    if (Arg)
      Arg->boundVars(Out);
    return;
  default:
    return;
  }
}

PatternPtr caml::makeWildPattern() {
  return std::make_unique<Pattern>(Pattern::Kind::Wild);
}

PatternPtr caml::makeVarPattern(const std::string &Name) {
  auto P = std::make_unique<Pattern>(Pattern::Kind::Var);
  P->Name = Name;
  return P;
}

PatternPtr caml::makeIntPattern(long Value) {
  auto P = std::make_unique<Pattern>(Pattern::Kind::Int);
  P->IntValue = Value;
  return P;
}

PatternPtr caml::makeBoolPattern(bool Value) {
  auto P = std::make_unique<Pattern>(Pattern::Kind::Bool);
  P->BoolValue = Value;
  return P;
}

PatternPtr caml::makeStringPattern(const std::string &Value) {
  auto P = std::make_unique<Pattern>(Pattern::Kind::String);
  P->StringValue = Value;
  return P;
}

PatternPtr caml::makeUnitPattern() {
  return std::make_unique<Pattern>(Pattern::Kind::Unit);
}

PatternPtr caml::makeTuplePattern(std::vector<PatternPtr> Elems) {
  auto P = std::make_unique<Pattern>(Pattern::Kind::Tuple);
  P->Elems = std::move(Elems);
  return P;
}

PatternPtr caml::makeListPattern(std::vector<PatternPtr> Elems) {
  auto P = std::make_unique<Pattern>(Pattern::Kind::List);
  P->Elems = std::move(Elems);
  return P;
}

PatternPtr caml::makeConsPattern(PatternPtr Head, PatternPtr Tail) {
  auto P = std::make_unique<Pattern>(Pattern::Kind::Cons);
  P->Head = std::move(Head);
  P->Tail = std::move(Tail);
  return P;
}

PatternPtr caml::makeConstrPattern(const std::string &Name, PatternPtr Arg) {
  auto P = std::make_unique<Pattern>(Pattern::Kind::Constr);
  P->Name = Name;
  P->Arg = std::move(Arg);
  return P;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Expr::swapChild(unsigned I, ExprPtr New) {
  assert(I < Children.size() && "swapChild index out of range");
  assert(New && "cannot install a null child");
  ExprPtr Old = std::move(Children[I]);
  Children[I] = std::move(New);
  return Old;
}

ExprPtr Expr::clone() const {
  auto Copy = std::make_unique<Expr>(TheKind);
  Copy->Span = Span;
  Copy->IntValue = IntValue;
  Copy->BoolValue = BoolValue;
  Copy->StringValue = StringValue;
  Copy->Name = Name;
  Copy->IsRec = IsRec;
  if (Binding)
    Copy->Binding = Binding->clone();
  Copy->Params.reserve(Params.size());
  for (const auto &Param : Params)
    Copy->Params.push_back(Param->clone());
  Copy->Children.reserve(Children.size());
  for (const auto &Child : Children)
    Copy->Children.push_back(Child->clone());
  Copy->ArmPats.reserve(ArmPats.size());
  for (const auto &Pat : ArmPats)
    Copy->ArmPats.push_back(Pat->clone());
  Copy->FieldNames = FieldNames;
  return Copy;
}

bool Expr::equals(const Expr &Other) const {
  if (TheKind != Other.TheKind)
    return false;
  if (IntValue != Other.IntValue || BoolValue != Other.BoolValue ||
      StringValue != Other.StringValue || Name != Other.Name ||
      IsRec != Other.IsRec || FieldNames != Other.FieldNames)
    return false;
  if ((Binding == nullptr) != (Other.Binding == nullptr))
    return false;
  if (Binding && !Binding->equals(*Other.Binding))
    return false;
  if (Params.size() != Other.Params.size() ||
      Children.size() != Other.Children.size() ||
      ArmPats.size() != Other.ArmPats.size())
    return false;
  for (size_t I = 0; I < Params.size(); ++I)
    if (!Params[I]->equals(*Other.Params[I]))
      return false;
  for (size_t I = 0; I < ArmPats.size(); ++I)
    if (!ArmPats[I]->equals(*Other.ArmPats[I]))
      return false;
  for (size_t I = 0; I < Children.size(); ++I)
    if (!Children[I]->equals(*Other.Children[I]))
      return false;
  return true;
}

unsigned Expr::size() const {
  unsigned N = 1;
  if (Binding)
    N += Binding->size();
  for (const auto &Param : Params)
    N += Param->size();
  for (const auto &Pat : ArmPats)
    N += Pat->size();
  for (const auto &Child : Children)
    N += Child->size();
  return N;
}

bool Expr::isSyntacticValue() const {
  switch (TheKind) {
  case Kind::IntLit:
  case Kind::BoolLit:
  case Kind::StringLit:
  case Kind::UnitLit:
  case Kind::Var:
  case Kind::Fun:
  case Kind::Wildcard:
    return true;
  case Kind::Tuple:
  case Kind::List: {
    for (const auto &Child : Children)
      if (!Child->isSyntacticValue())
        return false;
    return true;
  }
  case Kind::Cons:
    return Children[0]->isSyntacticValue() && Children[1]->isSyntacticValue();
  case Kind::Constr: {
    for (const auto &Child : Children)
      if (!Child->isSyntacticValue())
        return false;
    return true;
  }
  default:
    return false;
  }
}

ExprPtr caml::makeIntLit(long Value) {
  auto E = std::make_unique<Expr>(Expr::Kind::IntLit);
  E->IntValue = Value;
  return E;
}

ExprPtr caml::makeBoolLit(bool Value) {
  auto E = std::make_unique<Expr>(Expr::Kind::BoolLit);
  E->BoolValue = Value;
  return E;
}

ExprPtr caml::makeStringLit(const std::string &Value) {
  auto E = std::make_unique<Expr>(Expr::Kind::StringLit);
  E->StringValue = Value;
  return E;
}

ExprPtr caml::makeUnitLit() {
  return std::make_unique<Expr>(Expr::Kind::UnitLit);
}

ExprPtr caml::makeVar(const std::string &Name) {
  auto E = std::make_unique<Expr>(Expr::Kind::Var);
  E->Name = Name;
  return E;
}

ExprPtr caml::makeFun(std::vector<PatternPtr> Params, ExprPtr Body) {
  assert(!Params.empty() && "function with no parameters");
  auto E = std::make_unique<Expr>(Expr::Kind::Fun);
  E->Params = std::move(Params);
  E->Children.push_back(std::move(Body));
  return E;
}

ExprPtr caml::makeApp(ExprPtr Callee, std::vector<ExprPtr> Args) {
  assert(!Args.empty() && "application with no arguments");
  auto E = std::make_unique<Expr>(Expr::Kind::App);
  // The arguments' vector becomes the child vector, the callee in front.
  Args.insert(Args.begin(), std::move(Callee));
  E->Children = std::move(Args);
  return E;
}

ExprPtr caml::makeLet(bool IsRec, PatternPtr Binding,
                      std::vector<PatternPtr> Params, ExprPtr Rhs,
                      ExprPtr Body) {
  auto E = std::make_unique<Expr>(Expr::Kind::Let);
  E->IsRec = IsRec;
  E->Binding = std::move(Binding);
  E->Params = std::move(Params);
  E->Children.reserve(2);
  E->Children.push_back(std::move(Rhs));
  E->Children.push_back(std::move(Body));
  return E;
}

ExprPtr caml::makeIf(ExprPtr Cond, ExprPtr Then, ExprPtr Else) {
  auto E = std::make_unique<Expr>(Expr::Kind::If);
  E->Children.reserve(Else ? 3 : 2);
  E->Children.push_back(std::move(Cond));
  E->Children.push_back(std::move(Then));
  if (Else)
    E->Children.push_back(std::move(Else));
  return E;
}

ExprPtr caml::makeTuple(std::vector<ExprPtr> Elems) {
  assert(Elems.size() >= 2 && "tuple needs at least two elements");
  auto E = std::make_unique<Expr>(Expr::Kind::Tuple);
  E->Children = std::move(Elems);
  return E;
}

ExprPtr caml::makeList(std::vector<ExprPtr> Elems) {
  auto E = std::make_unique<Expr>(Expr::Kind::List);
  E->Children = std::move(Elems);
  return E;
}

ExprPtr caml::makeCons(ExprPtr Head, ExprPtr Tail) {
  auto E = std::make_unique<Expr>(Expr::Kind::Cons);
  E->Children.reserve(2);
  E->Children.push_back(std::move(Head));
  E->Children.push_back(std::move(Tail));
  return E;
}

ExprPtr caml::makeBinOp(const std::string &Op, ExprPtr Lhs, ExprPtr Rhs) {
  auto E = std::make_unique<Expr>(Expr::Kind::BinOp);
  E->Name = Op;
  E->Children.reserve(2);
  E->Children.push_back(std::move(Lhs));
  E->Children.push_back(std::move(Rhs));
  return E;
}

ExprPtr caml::makeUnaryOp(const std::string &Op, ExprPtr Operand) {
  auto E = std::make_unique<Expr>(Expr::Kind::UnaryOp);
  E->Name = Op;
  E->Children.push_back(std::move(Operand));
  return E;
}

ExprPtr caml::makeMatch(ExprPtr Scrutinee, std::vector<MatchArm> Arms) {
  assert(!Arms.empty() && "match with no arms");
  auto E = std::make_unique<Expr>(Expr::Kind::Match);
  E->Children.reserve(1 + Arms.size());
  E->ArmPats.reserve(Arms.size());
  E->Children.push_back(std::move(Scrutinee));
  for (auto &Arm : Arms) {
    E->ArmPats.push_back(std::move(Arm.Pat));
    E->Children.push_back(std::move(Arm.Body));
  }
  return E;
}

ExprPtr caml::makeConstr(const std::string &Name, ExprPtr Arg) {
  auto E = std::make_unique<Expr>(Expr::Kind::Constr);
  E->Name = Name;
  if (Arg)
    E->Children.push_back(std::move(Arg));
  return E;
}

ExprPtr caml::makeSeq(ExprPtr First, ExprPtr Second) {
  auto E = std::make_unique<Expr>(Expr::Kind::Seq);
  E->Children.reserve(2);
  E->Children.push_back(std::move(First));
  E->Children.push_back(std::move(Second));
  return E;
}

ExprPtr caml::makeRaise(ExprPtr Operand) {
  auto E = std::make_unique<Expr>(Expr::Kind::Raise);
  E->Children.push_back(std::move(Operand));
  return E;
}

ExprPtr caml::makeFieldAccess(ExprPtr Rec, const std::string &Field) {
  auto E = std::make_unique<Expr>(Expr::Kind::Field);
  E->Name = Field;
  E->Children.push_back(std::move(Rec));
  return E;
}

ExprPtr caml::makeSetField(ExprPtr Rec, const std::string &Field,
                           ExprPtr Value) {
  auto E = std::make_unique<Expr>(Expr::Kind::SetField);
  E->Name = Field;
  E->Children.reserve(2);
  E->Children.push_back(std::move(Rec));
  E->Children.push_back(std::move(Value));
  return E;
}

ExprPtr caml::makeRecord(std::vector<RecordField> Fields) {
  assert(!Fields.empty() && "record literal with no fields");
  auto E = std::make_unique<Expr>(Expr::Kind::Record);
  E->FieldNames.reserve(Fields.size());
  E->Children.reserve(Fields.size());
  for (auto &Field : Fields) {
    E->FieldNames.push_back(Field.Name);
    E->Children.push_back(std::move(Field.Value));
  }
  return E;
}

ExprPtr caml::makeWildcard() {
  return std::make_unique<Expr>(Expr::Kind::Wildcard);
}

ExprPtr caml::makeAdapt(ExprPtr Inner) {
  auto E = std::make_unique<Expr>(Expr::Kind::Adapt);
  E->Children.push_back(std::move(Inner));
  return E;
}

const BinaryOperator *caml::findBinaryOperator(std::string_view Spelling) {
  static constexpr BinaryOperator Operators[] = {
      {":=", LevelAssign, true},   {"||", LevelOr, false},
      {"&&", LevelAnd, false},     {"=", LevelCompare, false},
      {"==", LevelCompare, false}, {"<>", LevelCompare, false},
      {"<", LevelCompare, false},  {">", LevelCompare, false},
      {"<=", LevelCompare, false}, {">=", LevelCompare, false},
      {"^", LevelConcat, true},    {"@", LevelConcat, true},
      {"::", LevelCons, true},     {"+", LevelAdd, false},
      {"-", LevelAdd, false},      {"*", LevelMul, false},
      {"/", LevelMul, false},
  };
  // Every operator is one or two characters and starts with one of these,
  // so most other tokens are told apart without a scan.
  if (Spelling.empty() || Spelling.size() > 2 ||
      std::string_view(":|&=<>^@+-*/").find(Spelling[0]) ==
          std::string_view::npos)
    return nullptr;
  for (const BinaryOperator &Op : Operators)
    if (Op.Spelling == Spelling)
      return &Op;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Type expressions
//===----------------------------------------------------------------------===//

TypeExprPtr TypeExpr::clone() const {
  auto Copy = std::make_unique<TypeExpr>();
  Copy->TheKind = TheKind;
  Copy->Name = Name;
  Copy->Args.reserve(Args.size());
  for (const auto &Arg : Args)
    Copy->Args.push_back(Arg->clone());
  return Copy;
}

bool TypeExpr::equals(const TypeExpr &Other) const {
  if (TheKind != Other.TheKind || Name != Other.Name ||
      Args.size() != Other.Args.size())
    return false;
  for (size_t I = 0; I < Args.size(); ++I)
    if (!Args[I]->equals(*Other.Args[I]))
      return false;
  return true;
}

TypeExprPtr caml::makeTypeVarExpr(const std::string &Name) {
  auto T = std::make_unique<TypeExpr>();
  T->TheKind = TypeExpr::Kind::Var;
  T->Name = Name;
  return T;
}

TypeExprPtr caml::makeTypeNameExpr(const std::string &Name,
                                   std::vector<TypeExprPtr> Args) {
  auto T = std::make_unique<TypeExpr>();
  T->TheKind = TypeExpr::Kind::Name;
  T->Name = Name;
  T->Args = std::move(Args);
  return T;
}

TypeExprPtr caml::makeArrowTypeExpr(TypeExprPtr From, TypeExprPtr To) {
  auto T = std::make_unique<TypeExpr>();
  T->TheKind = TypeExpr::Kind::Arrow;
  T->Args.reserve(2);
  T->Args.push_back(std::move(From));
  T->Args.push_back(std::move(To));
  return T;
}

TypeExprPtr caml::makeTupleTypeExpr(std::vector<TypeExprPtr> Elems) {
  auto T = std::make_unique<TypeExpr>();
  T->TheKind = TypeExpr::Kind::Tuple;
  T->Args = std::move(Elems);
  return T;
}

//===----------------------------------------------------------------------===//
// Declarations and programs
//===----------------------------------------------------------------------===//

std::shared_ptr<Decl> Decl::clone() const {
  auto Copy = std::make_shared<Decl>(TheKind);
  Copy->Span = Span;
  Copy->IsRec = IsRec;
  if (Binding)
    Copy->Binding = Binding->clone();
  Copy->Params.reserve(Params.size());
  for (const auto &Param : Params)
    Copy->Params.push_back(Param->clone());
  if (Rhs)
    Copy->Rhs = Rhs->clone();
  Copy->TypeName = TypeName;
  Copy->TypeParams = TypeParams;
  Copy->IsRecord = IsRecord;
  Copy->Cases.reserve(Cases.size());
  for (const auto &Case : Cases) {
    VariantCase C;
    C.Name = Case.Name;
    if (Case.ArgType)
      C.ArgType = Case.ArgType->clone();
    Copy->Cases.push_back(std::move(C));
  }
  Copy->Fields.reserve(Fields.size());
  for (const auto &Field : Fields) {
    RecordFieldDecl F;
    F.Name = Field.Name;
    F.IsMutable = Field.IsMutable;
    if (Field.Type)
      F.Type = Field.Type->clone();
    Copy->Fields.push_back(std::move(F));
  }
  Copy->ExcName = ExcName;
  if (ExcArgType)
    Copy->ExcArgType = ExcArgType->clone();
  return Copy;
}

namespace {

bool optTypeExprEquals(const TypeExprPtr &A, const TypeExprPtr &B) {
  if ((A == nullptr) != (B == nullptr))
    return false;
  return !A || A->equals(*B);
}

} // namespace

bool Decl::equals(const Decl &Other) const {
  // Programs share their declarations, so a program compared with a copy
  // of itself (the oracle's memo and growth checks) settles each
  // declaration with this one pointer compare.
  if (this == &Other)
    return true;
  if (TheKind != Other.TheKind)
    return false;
  switch (TheKind) {
  case Kind::Let: {
    if (IsRec != Other.IsRec || Params.size() != Other.Params.size())
      return false;
    if (!Binding->equals(*Other.Binding))
      return false;
    for (size_t I = 0; I < Params.size(); ++I)
      if (!Params[I]->equals(*Other.Params[I]))
        return false;
    return Rhs->equals(*Other.Rhs);
  }
  case Kind::Type:
    if (TypeName != Other.TypeName || TypeParams != Other.TypeParams ||
        IsRecord != Other.IsRecord || Cases.size() != Other.Cases.size() ||
        Fields.size() != Other.Fields.size())
      return false;
    for (size_t I = 0; I < Cases.size(); ++I)
      if (Cases[I].Name != Other.Cases[I].Name ||
          !optTypeExprEquals(Cases[I].ArgType, Other.Cases[I].ArgType))
        return false;
    for (size_t I = 0; I < Fields.size(); ++I)
      if (Fields[I].Name != Other.Fields[I].Name ||
          Fields[I].IsMutable != Other.Fields[I].IsMutable ||
          !optTypeExprEquals(Fields[I].Type, Other.Fields[I].Type))
        return false;
    return true;
  case Kind::Exception:
    return ExcName == Other.ExcName &&
           optTypeExprEquals(ExcArgType, Other.ExcArgType);
  }
  return false;
}

unsigned Decl::size() const {
  unsigned N = 1;
  if (Binding)
    N += Binding->size();
  for (const auto &Param : Params)
    N += Param->size();
  if (Rhs)
    N += Rhs->size();
  return N;
}

std::shared_ptr<Decl> caml::makeLetDecl(bool IsRec, PatternPtr Binding,
                                        std::vector<PatternPtr> Params,
                                        ExprPtr Rhs) {
  auto D = std::make_shared<Decl>(Decl::Kind::Let);
  D->IsRec = IsRec;
  D->Binding = std::move(Binding);
  D->Params = std::move(Params);
  D->Rhs = std::move(Rhs);
  return D;
}

bool Program::equals(const Program &Other) const {
  if (Decls.size() != Other.Decls.size())
    return false;
  for (size_t I = 0; I < Decls.size(); ++I)
    if (!Decls[I]->equals(*Other.Decls[I]))
      return false;
  return true;
}

unsigned Program::size() const {
  unsigned N = 0;
  for (const auto &D : Decls)
    N += D->size();
  return N;
}

//===----------------------------------------------------------------------===//
// Node paths
//===----------------------------------------------------------------------===//

std::string NodePath::str() const {
  std::ostringstream OS;
  OS << "decl " << DeclIndex;
  for (unsigned Step : Steps)
    OS << "." << Step;
  return OS.str();
}

namespace {

/// Walks \p Path's steps down from \p D's initializer.
Expr *resolveSteps(const Decl &D, const NodePath &Path) {
  if (D.kind() != Decl::Kind::Let || !D.Rhs)
    return nullptr;
  Expr *Node = D.Rhs.get();
  for (unsigned Step : Path.Steps) {
    if (Step >= Node->numChildren())
      return nullptr;
    Node = Node->child(Step);
  }
  return Node;
}

} // namespace

const Expr *caml::resolvePath(const Program &Prog, const NodePath &Path) {
  if (Path.DeclIndex >= Prog.Decls.size())
    return nullptr;
  return resolveSteps(*Prog.Decls[Path.DeclIndex], Path);
}

Expr *caml::resolvePath(Decl &D, const NodePath &Path) {
  return resolveSteps(D, Path);
}

ExprPtr caml::replaceAtPath(Decl &D, const NodePath &Path,
                            ExprPtr Replacement) {
  assert(D.kind() == Decl::Kind::Let && D.Rhs && "path into non-let decl");
  if (Path.Steps.empty()) {
    ExprPtr Old = std::move(D.Rhs);
    D.Rhs = std::move(Replacement);
    return Old;
  }
  Expr *Parent = D.Rhs.get();
  for (size_t I = 0; I + 1 < Path.Steps.size(); ++I) {
    assert(Path.Steps[I] < Parent->numChildren() && "path step out of range");
    Parent = Parent->child(Path.Steps[I]);
  }
  return Parent->swapChild(Path.Steps.back(), std::move(Replacement));
}

Decl &caml::editDecl(Program &Prog, unsigned Index) {
  assert(Index < Prog.Decls.size() && "decl index out of range");
  std::shared_ptr<Decl> Copy = Prog.Decls[Index]->clone();
  Decl &Edited = *Copy;
  Prog.Decls[Index] = std::move(Copy);
  return Edited;
}
