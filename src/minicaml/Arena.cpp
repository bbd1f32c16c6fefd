//===- Arena.cpp - Hash-consed AST arena implementation --------------------==//

#include "minicaml/Arena.h"

#include "minicaml/Hash.h"

#include <algorithm>

using namespace seminal;
using namespace seminal::caml;

//===----------------------------------------------------------------------===//
// Hash computation (must replicate minicaml/Hash field order exactly)
//===----------------------------------------------------------------------===//

uint64_t AstArena::exprHashOf(Expr::Kind Kind, long IntValue, bool BoolValue,
                              const std::string &StringValue,
                              const std::string &Name, bool IsRec,
                              const std::vector<std::string> &FieldNames,
                              PatternId Binding, const PatternId *Params,
                              size_t NumParams, const PatternId *ArmPats,
                              size_t NumArmPats, const ExprId *Children,
                              size_t NumChildren) const {
  using hashing::mix;
  using hashing::mixString;
  uint64_t H = mix(hashing::Seed, 0xE0 + uint64_t(Kind));
  H = mix(H, uint64_t(IntValue));
  H = mix(H, BoolValue ? 2 : 1);
  H = mixString(H, StringValue);
  H = mixString(H, Name);
  H = mix(H, IsRec ? 2 : 1);
  for (const std::string &F : FieldNames)
    H = mixString(H, F);
  if (Binding != InvalidId)
    H = mix(H, PatternNodes[Binding].Hash);
  H = mix(H, NumParams);
  for (size_t I = 0; I < NumParams; ++I)
    H = mix(H, PatternNodes[Params[I]].Hash);
  H = mix(H, NumArmPats);
  for (size_t I = 0; I < NumArmPats; ++I)
    H = mix(H, PatternNodes[ArmPats[I]].Hash);
  H = mix(H, NumChildren);
  for (size_t I = 0; I < NumChildren; ++I)
    H = mix(H, ExprNodes[Children[I]].Hash);
  return H;
}

namespace {

bool typeExprEquals(const TypeExpr &A, const TypeExpr &B) {
  if (A.TheKind != B.TheKind || A.Name != B.Name ||
      A.Args.size() != B.Args.size())
    return false;
  for (size_t I = 0; I < A.Args.size(); ++I)
    if (!typeExprEquals(*A.Args[I], *B.Args[I]))
      return false;
  return true;
}

bool optTypeExprEquals(const TypeExprPtr &A, const TypeExprPtr &B) {
  if ((A == nullptr) != (B == nullptr))
    return false;
  return !A || typeExprEquals(*A, *B);
}

/// Full structural equality for type/exception declarations. Decl::equals
/// only compares names for these; the arena needs the real thing so that
/// id equality stays structural equality (a session re-adopts a retained
/// prefix environment on id equality alone).
bool otherDeclEquals(const Decl &A, const Decl &B) {
  if (A.kind() != B.kind())
    return false;
  if (A.kind() == Decl::Kind::Exception)
    return A.ExcName == B.ExcName && optTypeExprEquals(A.ExcArgType,
                                                       B.ExcArgType);
  if (A.TypeName != B.TypeName || A.TypeParams != B.TypeParams ||
      A.IsRecord != B.IsRecord || A.Cases.size() != B.Cases.size() ||
      A.Fields.size() != B.Fields.size())
    return false;
  for (size_t I = 0; I < A.Cases.size(); ++I)
    if (A.Cases[I].Name != B.Cases[I].Name ||
        !optTypeExprEquals(A.Cases[I].ArgType, B.Cases[I].ArgType))
      return false;
  for (size_t I = 0; I < A.Fields.size(); ++I)
    if (A.Fields[I].Name != B.Fields[I].Name ||
        A.Fields[I].IsMutable != B.Fields[I].IsMutable ||
        !optTypeExprEquals(A.Fields[I].Type, B.Fields[I].Type))
      return false;
  return true;
}

size_t stringsBytes(const std::vector<std::string> &V) {
  size_t N = 0;
  for (const std::string &S : V)
    N += S.size();
  return N;
}

} // namespace

bool AstArena::sameDecl(const DeclNode &A, const DeclNode &B) const {
  if (A.Kind != B.Kind)
    return false;
  if (A.Kind == Decl::Kind::Let)
    return A.IsRec == B.IsRec && A.Binding == B.Binding &&
           A.Params == B.Params && A.Rhs == B.Rhs;
  return otherDeclEquals(*A.Other, *B.Other);
}

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//

AstArena::DeclId AstArena::internDeclNode(DeclNode &&N) {
  std::vector<DeclId> &Bucket = DeclTable[N.Hash];
  for (DeclId Id : Bucket)
    if (sameDecl(DeclNodes[Id], N)) {
      ++TheStats.Hits;
      return Id;
    }
  DeclId Id = DeclId(DeclNodes.size());
  ++TheStats.Nodes;
  TheStats.Bytes += sizeof(DeclNode) + N.Params.size() * sizeof(PatternId) +
                    (N.Other ? size_t(N.Other->size()) * sizeof(Expr) : 0);
  DeclNodes.push_back(std::move(N));
  Bucket.push_back(Id);
  return Id;
}

AstArena::PatternId AstArena::internPatternKeyed(const Pattern &P,
                                                 const PatternId *Elems,
                                                 size_t NumElems,
                                                 PatternId Head,
                                                 PatternId Tail,
                                                 PatternId Arg) {
  using hashing::mix;
  using hashing::mixString;
  uint64_t H = mix(hashing::Seed, 0x50 + uint64_t(P.kind()));
  switch (P.kind()) {
  case Pattern::Kind::Wild:
  case Pattern::Kind::Unit:
    break;
  case Pattern::Kind::Var:
  case Pattern::Kind::Constr:
    H = mixString(H, P.Name);
    if (Arg != InvalidId)
      H = mix(H, PatternNodes[Arg].Hash);
    break;
  case Pattern::Kind::Int:
    H = mix(H, uint64_t(P.IntValue));
    break;
  case Pattern::Kind::Bool:
    H = mix(H, P.BoolValue ? 2 : 1);
    break;
  case Pattern::Kind::String:
    H = mixString(H, P.StringValue);
    break;
  case Pattern::Kind::Tuple:
  case Pattern::Kind::List:
    for (size_t I = 0; I < NumElems; ++I)
      H = mix(H, PatternNodes[Elems[I]].Hash);
    H = mix(H, NumElems);
    break;
  case Pattern::Kind::Cons:
    H = mix(H, PatternNodes[Head].Hash);
    H = mix(H, PatternNodes[Tail].Hash);
    break;
  }

  auto SameAsKey = [&](const PatternNode &C) {
    if (C.Kind != P.kind())
      return false;
    switch (C.Kind) {
    case Pattern::Kind::Wild:
    case Pattern::Kind::Unit:
      return true;
    case Pattern::Kind::Var:
    case Pattern::Kind::Constr:
      return C.Name == P.Name && C.Arg == Arg;
    case Pattern::Kind::Int:
      return C.IntValue == P.IntValue;
    case Pattern::Kind::Bool:
      return C.BoolValue == P.BoolValue;
    case Pattern::Kind::String:
      return C.StringValue == P.StringValue;
    case Pattern::Kind::Tuple:
    case Pattern::Kind::List:
      return C.Elems.size() == NumElems &&
             std::equal(C.Elems.begin(), C.Elems.end(), Elems);
    case Pattern::Kind::Cons:
      return C.Head == Head && C.Tail == Tail;
    }
    return false;
  };
  std::vector<PatternId> &Bucket = PatternTable[H];
  for (PatternId Id : Bucket)
    if (SameAsKey(PatternNodes[Id])) {
      ++TheStats.Hits;
      return Id;
    }

  PatternNode N;
  N.Kind = P.kind();
  N.BoolValue = P.BoolValue;
  N.IntValue = P.IntValue;
  N.Name = P.Name;
  N.StringValue = P.StringValue;
  N.Elems.assign(Elems, Elems + NumElems);
  N.Head = Head;
  N.Tail = Tail;
  N.Arg = Arg;
  N.Hash = H;
  PatternId Id = PatternId(PatternNodes.size());
  ++TheStats.Nodes;
  TheStats.Bytes += sizeof(PatternNode) + N.Name.size() +
                    N.StringValue.size() + N.Elems.size() * sizeof(PatternId);
  PatternNodes.push_back(std::move(N));
  Bucket.push_back(Id);
  return Id;
}

AstArena::PatternId AstArena::internPattern(const Pattern &P) {
  size_t ElemStart = PatStack.size();
  for (const PatternPtr &Elem : P.Elems)
    PatStack.push_back(internPattern(*Elem));
  PatternId Head = P.Head ? internPattern(*P.Head) : InvalidId;
  PatternId Tail = P.Tail ? internPattern(*P.Tail) : InvalidId;
  PatternId Arg = P.Arg ? internPattern(*P.Arg) : InvalidId;
  PatternId Id = internPatternKeyed(P, PatStack.data() + ElemStart,
                                    PatStack.size() - ElemStart, Head, Tail,
                                    Arg);
  PatStack.resize(ElemStart);
  return Id;
}

AstArena::ExprId AstArena::internExprKeyed(const Expr &E, PatternId Binding,
                                           const PatternId *Params,
                                           size_t NumParams,
                                           const PatternId *ArmPats,
                                           size_t NumArmPats,
                                           const ExprId *Children,
                                           size_t NumChildren) {
  uint64_t H = exprHashOf(E.kind(), E.IntValue, E.BoolValue, E.StringValue,
                          E.Name, E.IsRec, E.FieldNames, Binding, Params,
                          NumParams, ArmPats, NumArmPats, Children,
                          NumChildren);
  auto SameAsKey = [&](const ExprNode &C) {
    return C.Kind == E.kind() && C.IntValue == E.IntValue &&
           C.BoolValue == E.BoolValue && C.IsRec == E.IsRec &&
           C.StringValue == E.StringValue && C.Name == E.Name &&
           C.FieldNames == E.FieldNames && C.Binding == Binding &&
           C.Params.size() == NumParams &&
           std::equal(C.Params.begin(), C.Params.end(), Params) &&
           C.ArmPats.size() == NumArmPats &&
           std::equal(C.ArmPats.begin(), C.ArmPats.end(), ArmPats) &&
           C.Children.size() == NumChildren &&
           std::equal(C.Children.begin(), C.Children.end(), Children);
  };
  std::vector<ExprId> &Bucket = ExprTable[H];
  for (ExprId Id : Bucket)
    if (SameAsKey(ExprNodes[Id])) {
      ++TheStats.Hits;
      return Id;
    }

  ExprNode N;
  N.Kind = E.kind();
  N.BoolValue = E.BoolValue;
  N.IsRec = E.IsRec;
  N.IntValue = E.IntValue;
  N.StringValue = E.StringValue;
  N.Name = E.Name;
  N.FieldNames = E.FieldNames;
  N.Binding = Binding;
  N.Params.assign(Params, Params + NumParams);
  N.ArmPats.assign(ArmPats, ArmPats + NumArmPats);
  N.Children.assign(Children, Children + NumChildren);
  N.Hash = H;
  ExprId Id = ExprId(ExprNodes.size());
  ++TheStats.Nodes;
  TheStats.Bytes += sizeof(ExprNode) + N.StringValue.size() + N.Name.size() +
                    stringsBytes(N.FieldNames) +
                    N.FieldNames.size() * sizeof(std::string) +
                    (N.Params.size() + N.ArmPats.size()) * sizeof(PatternId) +
                    N.Children.size() * sizeof(ExprId);
  ExprNodes.push_back(std::move(N));
  Bucket.push_back(Id);
  return Id;
}

AstArena::ExprId AstArena::internExpr(const Expr &E) {
  PatternId Binding = E.Binding ? internPattern(*E.Binding) : InvalidId;
  size_t ParamStart = PatStack.size();
  for (const PatternPtr &Param : E.Params)
    PatStack.push_back(internPattern(*Param));
  size_t ArmStart = PatStack.size();
  for (const PatternPtr &Pat : E.ArmPats)
    PatStack.push_back(internPattern(*Pat));
  size_t ChildStart = ExprStack.size();
  for (const ExprPtr &Child : E.Children)
    ExprStack.push_back(internExpr(*Child));
  ExprId Id = internExprKeyed(
      E, Binding, PatStack.data() + ParamStart, ArmStart - ParamStart,
      PatStack.data() + ArmStart, PatStack.size() - ArmStart,
      ExprStack.data() + ChildStart, ExprStack.size() - ChildStart);
  PatStack.resize(ParamStart);
  ExprStack.resize(ChildStart);
  return Id;
}

AstArena::DeclId AstArena::internDecl(const Decl &D) {
  if (D.kind() != Decl::Kind::Let) {
    DeclNode N;
    N.Kind = D.kind();
    N.Other = D.clone();
    N.Hash = hashDecl(D);
    return internDeclNode(std::move(N));
  }

  PatternId Binding = internPattern(*D.Binding);
  size_t ParamStart = PatStack.size();
  for (const PatternPtr &Param : D.Params)
    PatStack.push_back(internPattern(*Param));
  size_t NumParams = PatStack.size() - ParamStart;
  ExprId Rhs = internExpr(*D.Rhs);
  // After the Rhs walk: its stack frames are popped, but pushes may have
  // reallocated the stack, so take the pointer only now.
  const PatternId *Params = PatStack.data() + ParamStart;

  using hashing::mix;
  uint64_t H = mix(hashing::Seed, 0xD0 + uint64_t(Decl::Kind::Let));
  H = mix(H, D.IsRec ? 2 : 1);
  H = mix(H, PatternNodes[Binding].Hash);
  H = mix(H, NumParams);
  for (size_t I = 0; I < NumParams; ++I)
    H = mix(H, PatternNodes[Params[I]].Hash);
  H = mix(H, ExprNodes[Rhs].Hash);

  DeclId Found = InvalidId;
  std::vector<DeclId> &Bucket = DeclTable[H];
  for (DeclId Id : Bucket) {
    const DeclNode &C = DeclNodes[Id];
    if (C.Kind == Decl::Kind::Let && C.IsRec == D.IsRec &&
        C.Binding == Binding && C.Rhs == Rhs &&
        C.Params.size() == NumParams &&
        std::equal(C.Params.begin(), C.Params.end(), Params)) {
      ++TheStats.Hits;
      Found = Id;
      break;
    }
  }
  if (Found == InvalidId) {
    DeclNode N;
    N.Kind = Decl::Kind::Let;
    N.IsRec = D.IsRec;
    N.Binding = Binding;
    N.Params.assign(Params, Params + NumParams);
    N.Rhs = Rhs;
    N.Hash = H;
    Found = DeclId(DeclNodes.size());
    ++TheStats.Nodes;
    TheStats.Bytes += sizeof(DeclNode) + N.Params.size() * sizeof(PatternId);
    DeclNodes.push_back(std::move(N));
    Bucket.push_back(Found);
  }
  PatStack.resize(ParamStart);
  return Found;
}

void AstArena::clear() {
  ExprNodes.clear();
  PatternNodes.clear();
  DeclNodes.clear();
  ExprTable.clear();
  PatternTable.clear();
  DeclTable.clear();
  TheStats = Stats();
  PatStack.clear();
  ExprStack.clear();
}
