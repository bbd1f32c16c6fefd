//===- Mutation.cpp - Error-seed implementation ----------------------------==//

#include "corpus/Mutation.h"

#include "minicaml/Infer.h"
#include "minicaml/Printer.h"

#include <cassert>
#include <functional>

using namespace seminal;
using namespace seminal::caml;

std::string seminal::mutationKindName(MutationKind Kind) {
  switch (Kind) {
  case MutationKind::SwapCallArgs:
    return "swap-call-args";
  case MutationKind::TupleCurriedFun:
    return "tuple-curried-fun";
  case MutationKind::CurryTupledFun:
    return "curry-tupled-fun";
  case MutationKind::CallWithTuple:
    return "call-with-tuple";
  case MutationKind::DropCallArg:
    return "drop-call-arg";
  case MutationKind::ExtraCallArg:
    return "extra-call-arg";
  case MutationKind::MisspellVar:
    return "misspell-var";
  case MutationKind::PlusOnStrings:
    return "plus-on-strings";
  case MutationKind::CommaList:
    return "comma-list";
  case MutationKind::MissingRec:
    return "missing-rec";
  case MutationKind::IntForString:
    return "int-for-string";
  case MutationKind::CondNotBool:
    return "cond-not-bool";
  case MutationKind::ConsForAppend:
    return "cons-for-append";
  case MutationKind::MissingDeref:
    return "missing-deref";
  }
  return "unknown";
}

namespace {

/// Preorder walk over every expression with its path.
void walkExprs(const Program &Prog,
               const std::function<void(const NodePath &, const Expr *)> &Fn) {
  for (unsigned D = 0; D < Prog.Decls.size(); ++D) {
    const Decl *TheDecl = Prog.Decls[D].get();
    if (TheDecl->kind() != Decl::Kind::Let || !TheDecl->Rhs)
      continue;
    std::function<void(const NodePath &, const Expr *)> Rec =
        [&](const NodePath &Path, const Expr *Node) {
          Fn(Path, Node);
          for (unsigned I = 0; I < Node->numChildren(); ++I)
            Rec(Path.descend(I), Node->child(I));
        };
    Rec(NodePath(D), TheDecl->Rhs.get());
  }
}

/// Collects paths of every expression satisfying \p Pred.
std::vector<NodePath> findSites(const Program &Prog,
                                const std::function<bool(const Expr *)> &Pred) {
  std::vector<NodePath> Sites;
  walkExprs(Prog, [&](const NodePath &Path, const Expr *Node) {
    if (Pred(Node))
      Sites.push_back(Path);
  });
  return Sites;
}

bool pathsDisjoint(const NodePath &A, const NodePath &B) {
  if (A.DeclIndex != B.DeclIndex)
    return true;
  size_t N = std::min(A.Steps.size(), B.Steps.size());
  for (size_t I = 0; I < N; ++I)
    if (A.Steps[I] != B.Steps[I])
      return true;
  return false; // one is a prefix of the other (or equal)
}

bool disjointFromAll(const NodePath &Path,
                     const std::vector<GroundTruth> &Truths) {
  for (const auto &T : Truths)
    if (!pathsDisjoint(Path, T.Path))
      return false;
  return true;
}

/// Applies \p Kind at a random admissible site of \p Prog. The mutated
/// declaration becomes a private clone; the others stay shared.
/// \returns the ground truth, or nullopt when no site exists.
std::optional<GroundTruth>
applyAt(Program &Prog, MutationKind Kind, Rng &R,
        const std::vector<GroundTruth> &Existing,
        std::optional<unsigned> DeclFilter) {
  auto PickSite =
      [&](const std::function<bool(const Expr *)> &Pred)
      -> std::optional<NodePath> {
    std::vector<NodePath> Sites = findSites(Prog, Pred);
    std::vector<NodePath> Ok;
    for (auto &S : Sites) {
      if (DeclFilter && S.DeclIndex != *DeclFilter)
        continue;
      if (disjointFromAll(S, Existing))
        Ok.push_back(S);
    }
    if (Ok.empty())
      return std::nullopt;
    return Ok[size_t(R.range(0, int64_t(Ok.size()) - 1))];
  };

  GroundTruth Truth;
  Truth.Kind = Kind;

  switch (Kind) {
  case MutationKind::SwapCallArgs: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::App && E->numChildren() >= 3;
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    unsigned NumArgs = Node->numChildren() - 1;
    unsigned I = unsigned(R.range(1, NumArgs - 1));
    std::swap(Node->Children[I], Node->Children[I + 1]);
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::TupleCurriedFun: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::Fun && E->Params.size() >= 2;
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    std::vector<PatternPtr> Elems;
    for (auto &Param : Node->Params)
      Elems.push_back(std::move(Param));
    Node->Params.clear();
    Node->Params.push_back(makeTuplePattern(std::move(Elems)));
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::CurryTupledFun: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::Fun && E->Params.size() == 1 &&
             E->Params[0]->kind() == Pattern::Kind::Tuple;
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    std::vector<PatternPtr> Params;
    for (auto &Elem : Node->Params[0]->Elems)
      Params.push_back(std::move(Elem));
    Node->Params = std::move(Params);
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::CallWithTuple: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::App && E->numChildren() >= 3;
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    std::vector<ExprPtr> Args;
    for (unsigned I = 1; I < Node->numChildren(); ++I)
      Args.push_back(std::move(Node->Children[I]));
    Node->Children.resize(1);
    Node->Children.push_back(makeTuple(std::move(Args)));
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::DropCallArg: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::App && E->numChildren() >= 3;
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    // Drop the last argument: the partial-application mistake.
    Node->Children.pop_back();
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::ExtraCallArg: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::App && E->numChildren() >= 2;
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    Node->Children.push_back(Node->Children.back()->clone());
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::MisspellVar: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::Var && E->Name.size() >= 3 &&
             E->Name.find('.') == std::string::npos;
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    Node->Name.pop_back(); // drop the final character
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::PlusOnStrings: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::BinOp && E->Name == "^";
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    Node->Name = "+";
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::CommaList: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::List && E->numChildren() >= 2;
    });
    if (!Site)
      return std::nullopt;
    Expr *Node = resolvePath(editDecl(Prog, Site->DeclIndex), *Site);
    Truth.Before = printExpr(*Node);
    std::vector<ExprPtr> Elems;
    for (auto &Child : Node->Children)
      Elems.push_back(std::move(Child));
    Node->Children.clear();
    Node->Children.push_back(makeTuple(std::move(Elems)));
    Truth.After = printExpr(*Node);
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::MissingRec: {
    // Declaration-level first, then let-in expressions.
    std::vector<NodePath> Sites;
    for (unsigned D = 0; D < Prog.Decls.size(); ++D)
      if (Prog.Decls[D]->kind() == Decl::Kind::Let && Prog.Decls[D]->IsRec)
        Sites.push_back(NodePath(D));
    walkExprs(Prog, [&](const NodePath &Path, const Expr *Node) {
      if (Node->kind() == Expr::Kind::Let && Node->IsRec)
        Sites.push_back(Path);
    });
    std::vector<NodePath> Ok;
    for (auto &S : Sites) {
      if (DeclFilter && S.DeclIndex != *DeclFilter)
        continue;
      if (disjointFromAll(S, Existing))
        Ok.push_back(S);
    }
    if (Ok.empty())
      return std::nullopt;
    NodePath Site = Ok[size_t(R.range(0, int64_t(Ok.size()) - 1))];
    Decl &Edited = editDecl(Prog, Site.DeclIndex);
    if (Site.Steps.empty() && Edited.IsRec) {
      Truth.Before = printDecl(Edited);
      Edited.IsRec = false;
      Truth.After = printDecl(Edited);
      Truth.Path = Site;
      return Truth;
    }
    Expr *Node = resolvePath(Edited, Site);
    if (!Node || Node->kind() != Expr::Kind::Let)
      return std::nullopt;
    Truth.Before = printExpr(*Node);
    Node->IsRec = false;
    Truth.After = printExpr(*Node);
    Truth.Path = Site;
    return Truth;
  }
  case MutationKind::IntForString: {
    auto Site = PickSite(
        [](const Expr *E) { return E->kind() == Expr::Kind::StringLit; });
    if (!Site)
      return std::nullopt;
    Decl &Edited = editDecl(Prog, Site->DeclIndex);
    Truth.Before = printExpr(*resolvePath(Edited, *Site));
    replaceAtPath(Edited, *Site, makeIntLit(0));
    Truth.After = "0";
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::CondNotBool: {
    auto Site =
        PickSite([](const Expr *E) { return E->kind() == Expr::Kind::If; });
    if (!Site)
      return std::nullopt;
    NodePath CondPath = Site->descend(0);
    Decl &Edited = editDecl(Prog, CondPath.DeclIndex);
    Truth.Before = printExpr(*resolvePath(Edited, CondPath));
    replaceAtPath(Edited, CondPath, makeIntLit(1));
    Truth.After = "1";
    Truth.Path = CondPath;
    return Truth;
  }
  case MutationKind::ConsForAppend: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::BinOp && E->Name == "@";
    });
    if (!Site)
      return std::nullopt;
    Decl &Edited = editDecl(Prog, Site->DeclIndex);
    Expr *Node = resolvePath(Edited, *Site);
    Truth.Before = printExpr(*Node);
    ExprPtr New = makeCons(Node->Children[0]->clone(),
                           Node->Children[1]->clone());
    replaceAtPath(Edited, *Site, std::move(New));
    Truth.After = printExpr(*resolvePath(Edited, *Site));
    Truth.Path = *Site;
    return Truth;
  }
  case MutationKind::MissingDeref: {
    auto Site = PickSite([](const Expr *E) {
      return E->kind() == Expr::Kind::UnaryOp && E->Name == "!";
    });
    if (!Site)
      return std::nullopt;
    Decl &Edited = editDecl(Prog, Site->DeclIndex);
    Expr *Node = resolvePath(Edited, *Site);
    Truth.Before = printExpr(*Node);
    ExprPtr Inner = Node->Children[0]->clone();
    replaceAtPath(Edited, *Site, std::move(Inner));
    Truth.After = printExpr(*resolvePath(Edited, *Site));
    Truth.Path = *Site;
    return Truth;
  }
  }
  return std::nullopt;
}

} // namespace

std::optional<MutationResult>
seminal::applyOneMutation(const Program &Template, MutationKind Kind,
                          Rng &R) {
  MutationResult Result;
  Result.Mutated = Template;
  auto Truth = applyAt(Result.Mutated, Kind, R, {}, std::nullopt);
  if (!Truth)
    return std::nullopt;
  Result.Truths.push_back(std::move(*Truth));
  return Result;
}

namespace {

/// Relative frequency of each mistake kind. Simple, local slips
/// (misspellings, wrong literal, wrong operator) dominate real novice
/// corpora; the nonlocal kinds that motivated the paper (curried/tupled
/// confusion, missing arguments in higher-order code) are a significant
/// minority. Indexed by MutationKind.
const double MutationWeights[NumMutationKinds] = {
    1.5, // SwapCallArgs
    1.8, // TupleCurriedFun
    1.2, // CurryTupledFun
    1.2, // CallWithTuple
    1.5, // DropCallArg
    1.5, // ExtraCallArg
    1.2, // MisspellVar
    2.5, // PlusOnStrings
    1.2, // CommaList
    1.5, // MissingRec
    2.0, // IntForString
    1.0, // CondNotBool
    0.8, // ConsForAppend
    1.0, // MissingDeref
};

MutationKind pickWeightedKind(Rng &R) {
  double Total = 0;
  for (double W : MutationWeights)
    Total += W;
  double X = R.unit() * Total;
  for (int I = 0; I < NumMutationKinds; ++I) {
    X -= MutationWeights[I];
    if (X <= 0)
      return MutationKind(I);
  }
  return MutationKind(NumMutationKinds - 1);
}

} // namespace

std::optional<MutationResult>
seminal::mutateProgram(const Program &Template, unsigned Count, Rng &R) {
  // Try a few times to build a mutant that actually fails to type-check.
  for (int Attempt = 0; Attempt < 16; ++Attempt) {
    MutationResult Result;
    Result.Mutated = Template;
    unsigned Applied = 0;
    // Independent errors cluster in the declaration the programmer is
    // actively writing: once the first mutation lands, later ones go to
    // the same declaration (this is also what makes triage matter --
    // errors in different top-level bindings are separated by prefix
    // localization already).
    std::optional<unsigned> DeclFilter;
    for (unsigned I = 0; I < Count * 6 && Applied < Count; ++I) {
      MutationKind Kind = pickWeightedKind(R);
      auto Truth =
          applyAt(Result.Mutated, Kind, R, Result.Truths, DeclFilter);
      if (!Truth)
        continue;
      DeclFilter = Truth->Path.DeclIndex;
      Result.Truths.push_back(std::move(*Truth));
      ++Applied;
    }
    if (Applied == 0)
      continue;
    if (!caml::typecheckProgram(Result.Mutated).ok())
      return Result;
  }
  return std::nullopt;
}
