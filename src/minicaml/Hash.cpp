//===- Hash.cpp - Structural hashing implementation ------------------------==//

#include "minicaml/Hash.h"

using namespace seminal;
using namespace seminal::caml;

namespace {

// 64-bit FNV-1a over typed fields, with a splitmix-style finisher mixed in
// at every combine so shallow trees still diffuse well.
constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  V *= 0xbf58476d1ce4e5b9ull;
  V ^= V >> 27;
  return (H ^ V) * FnvPrime;
}

uint64_t hashString(uint64_t H, const std::string &S) {
  uint64_t SH = FnvOffset;
  for (unsigned char C : S) {
    SH ^= C;
    SH *= FnvPrime;
  }
  return mix(H, mix(SH, S.size()));
}

} // namespace

uint64_t caml::hashPattern(const Pattern &P) {
  uint64_t H = mix(FnvOffset, 0x50 + uint64_t(P.kind()));
  switch (P.kind()) {
  case Pattern::Kind::Wild:
  case Pattern::Kind::Unit:
    break;
  case Pattern::Kind::Var:
  case Pattern::Kind::Constr:
    H = hashString(H, P.Name);
    if (P.Arg)
      H = mix(H, hashPattern(*P.Arg));
    break;
  case Pattern::Kind::Int:
    H = mix(H, uint64_t(P.IntValue));
    break;
  case Pattern::Kind::Bool:
    H = mix(H, P.BoolValue ? 2 : 1);
    break;
  case Pattern::Kind::String:
    H = hashString(H, P.StringValue);
    break;
  case Pattern::Kind::Tuple:
  case Pattern::Kind::List:
    for (const auto &Elem : P.Elems)
      H = mix(H, hashPattern(*Elem));
    H = mix(H, P.Elems.size());
    break;
  case Pattern::Kind::Cons:
    H = mix(H, hashPattern(*P.Head));
    H = mix(H, hashPattern(*P.Tail));
    break;
  }
  return H;
}

uint64_t caml::hashExpr(const Expr &E) {
  // Mirrors Expr::equals: kind, scalar payloads, binding, params, arm
  // patterns, then children, each domain-tagged so an empty vector in one
  // slot cannot cancel out an entry in another.
  uint64_t H = mix(FnvOffset, 0xE0 + uint64_t(E.kind()));
  H = mix(H, uint64_t(E.IntValue));
  H = mix(H, E.BoolValue ? 2 : 1);
  H = hashString(H, E.StringValue);
  H = hashString(H, E.Name);
  H = mix(H, E.IsRec ? 2 : 1);
  for (const std::string &F : E.FieldNames)
    H = hashString(H, F);
  if (E.Binding)
    H = mix(H, hashPattern(*E.Binding));
  H = mix(H, E.Params.size());
  for (const auto &Param : E.Params)
    H = mix(H, hashPattern(*Param));
  H = mix(H, E.ArmPats.size());
  for (const auto &Pat : E.ArmPats)
    H = mix(H, hashPattern(*Pat));
  H = mix(H, E.Children.size());
  for (const auto &Child : E.Children)
    H = mix(H, hashExpr(*Child));
  return H;
}

uint64_t caml::hashTypeExpr(const TypeExpr &TE) {
  uint64_t H = mix(FnvOffset, 0x70 + uint64_t(TE.TheKind));
  H = hashString(H, TE.Name);
  H = mix(H, TE.Args.size());
  for (const auto &Arg : TE.Args)
    H = mix(H, hashTypeExpr(*Arg));
  return H;
}

uint64_t caml::hashDecl(const Decl &D) {
  uint64_t H = mix(FnvOffset, 0xD0 + uint64_t(D.kind()));
  switch (D.kind()) {
  case Decl::Kind::Let:
    H = mix(H, D.IsRec ? 2 : 1);
    H = mix(H, hashPattern(*D.Binding));
    H = mix(H, D.Params.size());
    for (const auto &Param : D.Params)
      H = mix(H, hashPattern(*Param));
    H = mix(H, hashExpr(*D.Rhs));
    break;
  case Decl::Kind::Type:
    // The same fields Decl::equals compares, so equal declarations hash
    // equal.
    H = hashString(H, D.TypeName);
    H = mix(H, D.IsRecord ? 2 : 1);
    for (const std::string &Param : D.TypeParams)
      H = hashString(H, Param);
    for (const VariantCase &Case : D.Cases) {
      H = hashString(H, Case.Name);
      if (Case.ArgType)
        H = mix(H, hashTypeExpr(*Case.ArgType));
    }
    for (const RecordFieldDecl &Field : D.Fields) {
      H = hashString(H, Field.Name);
      H = mix(H, Field.IsMutable ? 2 : 1);
      H = mix(H, hashTypeExpr(*Field.Type));
    }
    break;
  case Decl::Kind::Exception:
    H = hashString(H, D.ExcName);
    if (D.ExcArgType)
      H = mix(H, hashTypeExpr(*D.ExcArgType));
    break;
  }
  return H;
}

uint64_t caml::hashProgram(const Program &Prog) {
  uint64_t H = mix(FnvOffset, Prog.Decls.size());
  for (const auto &D : Prog.Decls)
    H = mix(H, hashDecl(*D));
  return H;
}
