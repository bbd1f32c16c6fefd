//===- Judge.cpp - Automated message-quality judgment ----------------------==//

#include "eval/Judge.h"

#include "core/Oracle.h"

#include <functional>

using namespace seminal;
using namespace seminal::caml;

std::string seminal::qualityName(Quality Q) {
  switch (Q) {
  case Quality::Poor:
    return "poor";
  case Quality::GoodLocation:
    return "good-location";
  case Quality::Accurate:
    return "accurate";
  }
  return "?";
}

std::optional<unsigned> seminal::pathDistance(const NodePath &A,
                                              const NodePath &B) {
  if (A.DeclIndex != B.DeclIndex)
    return std::nullopt;
  const auto &Short = A.Steps.size() <= B.Steps.size() ? A.Steps : B.Steps;
  const auto &Long = A.Steps.size() <= B.Steps.size() ? B.Steps : A.Steps;
  for (size_t I = 0; I < Short.size(); ++I)
    if (Short[I] != Long[I])
      return std::nullopt;
  return unsigned(Long.size() - Short.size());
}

std::optional<NodePath> seminal::pathAtOffset(const Program &Prog,
                                              uint32_t Offset) {
  std::optional<NodePath> Best;
  unsigned BestDepth = 0;
  for (unsigned D = 0; D < Prog.Decls.size(); ++D) {
    const Decl *TheDecl = Prog.Decls[D].get();
    if (TheDecl->kind() != Decl::Kind::Let || !TheDecl->Rhs)
      continue;
    std::function<void(const NodePath &, const Expr *, unsigned)> Rec =
        [&](const NodePath &Path, const Expr *Node, unsigned Depth) {
          if (Node->Span.isValid() && Node->Span.contains(Offset)) {
            if (!Best || Depth >= BestDepth) {
              Best = Path;
              BestDepth = Depth;
            }
          }
          for (unsigned I = 0; I < Node->numChildren(); ++I)
            Rec(Path.descend(I), Node->child(I), Depth + 1);
        };
    Rec(NodePath(D), TheDecl->Rhs.get(), 0);
  }
  return Best;
}

namespace {

/// Best (smallest) distance from \p Path to any ground-truth node.
std::optional<unsigned> bestDistance(const NodePath &Path,
                                     const std::vector<GroundTruth> &Truths) {
  std::optional<unsigned> Best;
  for (const auto &T : Truths) {
    auto D = pathDistance(Path, T.Path);
    if (D && (!Best || *D < *Best))
      Best = D;
  }
  return Best;
}

} // namespace

Quality seminal::judgeSuggestion(const Suggestion &S,
                                 const std::vector<GroundTruth> &Truths) {
  // "Suggesting this entire code fragment be replaced does not help the
  // programmer" (Section 2.4): a removal or adaptation of a large
  // subtree is not a useful message no matter where it points.
  if ((S.Kind == ChangeKind::Removal || S.Kind == ChangeKind::Adaptation) &&
      S.OriginalSize > 6)
    return Quality::Poor;

  auto D = bestDistance(S.Path, Truths);
  if (!D)
    return Quality::Poor;

  // Note: a removal that merely *hints* at an unbound variable is graded
  // GoodLocation, not Accurate -- the checker's "Unbound value x" names
  // the problem outright, and the paper's evaluated prototype did not yet
  // draw the unbound conclusion at all (Section 3.3 lists it as a
  // straightforward improvement). This keeps the judge faithful to the
  // system the paper measured.
  bool ProposesEdit = S.Kind == ChangeKind::Constructive ||
                      S.Kind == ChangeKind::PatternFix;
  // An adaptation pinned on exactly the mutated node names the expected
  // type at the right place -- as informative as an edit (Section 2.3).
  if (S.Kind == ChangeKind::Adaptation && *D == 0)
    ProposesEdit = true;
  if (*D <= 1 && ProposesEdit)
    return Quality::Accurate;
  if (*D <= 3)
    return Quality::GoodLocation;
  return Quality::Poor;
}

Quality seminal::judgeSeminal(const SeminalReport &Report,
                              const std::vector<GroundTruth> &Truths) {
  if (Report.Suggestions.empty())
    return Quality::Poor;
  return judgeSuggestion(Report.Suggestions.front(), Truths);
}

int seminal::rankOfTrueFix(const SeminalReport &Report,
                           const std::vector<GroundTruth> &Truths) {
  for (size_t I = 0; I < Report.Suggestions.size(); ++I)
    if (judgeSuggestion(Report.Suggestions[I], Truths) == Quality::Accurate)
      return int(I) + 1;
  return 0;
}

Quality seminal::judgeChecker(const Program &Prog,
                              const std::optional<TypeError> &Error,
                              const std::vector<GroundTruth> &Truths) {
  if (!Error || !Error->Span.isValid())
    return Quality::Poor;

  auto Path = pathAtOffset(Prog, Error->Span.Begin.Offset);
  if (!Path)
    return Quality::Poor;

  // "Unbound value f" against a missing-rec mutation in f's own
  // declaration names the exact problem: as accurate as a message gets
  // (the paper concedes the checker wins the unbound-identifier cases).
  if (Error->TheKind == caml::TypeError::Kind::Unbound)
    for (const auto &T : Truths)
      if (T.Kind == MutationKind::MissingRec &&
          T.Path.DeclIndex == Path->DeclIndex &&
          T.Before.find(Error->Name) != std::string::npos)
        return Quality::Accurate;

  auto D = bestDistance(*Path, Truths);
  if (!D || *D > 3)
    return Quality::Poor;

  // The paper's misleading-ness test: a location is useful only if some
  // change there can make the program type-check. A reader naturally
  // considers the immediately enclosing expression too (blaming one
  // operand of a wrong operator points a human at the operator), so the
  // blamed node's parent is also probed. Two oracle calls.
  // Identify the matched truth: the other injected errors get masked
  // (wildcarded) during the usefulness probes, so a location is judged
  // against *its* error alone -- with several independent mistakes, no
  // single change can make the whole file check.
  const GroundTruth *Matched = nullptr;
  {
    unsigned BestD = ~0u;
    for (const auto &T : Truths) {
      auto DT = pathDistance(*Path, T.Path);
      if (DT && *DT < BestD) {
        BestD = *DT;
        Matched = &T;
      }
    }
  }

  // Probe a copy that wildcards every unmatched truth site. Its edited
  // declarations are private clones, so Prog is left as it was.
  Program Work = Prog;
  for (const auto &T : Truths) {
    if (&T == Matched)
      continue;
    if (T.Path.Steps.empty()) {
      // Declaration-level truth (missing rec): restore the flag.
      const Decl &D = *Work.Decls[T.Path.DeclIndex];
      if (D.kind() == Decl::Kind::Let && !D.IsRec)
        editDecl(Work, T.Path.DeclIndex).IsRec = true;
      continue;
    }
    if (resolvePath(Work, T.Path))
      replaceAtPath(editDecl(Work, T.Path.DeclIndex), T.Path,
                    makeWildcard());
  }

  bool Useful = false;
  if (resolvePath(Work, *Path)) {
    CamlOracle O;
    Decl &Blamed = editDecl(Work, Path->DeclIndex);
    ExprPtr Old = replaceAtPath(Blamed, *Path, makeWildcard());
    Useful = O.typechecks(Work);
    replaceAtPath(Blamed, *Path, std::move(Old));
    // The parent probe only extends to small enclosing expressions (an
    // operator application around the blamed operand); pointing inside a
    // large subtree whose wholesale replacement is the only fix is the
    // canonical misleading message (Figure 2).
    if (!Useful && !Path->Steps.empty()) {
      NodePath Parent = *Path;
      Parent.Steps.pop_back();
      const Expr *ParentNode = resolvePath(Work, Parent);
      if (ParentNode && ParentNode->size() <= 6) {
        replaceAtPath(Blamed, Parent, makeWildcard());
        Useful = O.typechecks(Work);
      }
    }
  } else if (Path->Steps.empty()) {
    Useful = true; // declaration-level blame
  }

  if (!Useful)
    return Quality::Poor;

  // Blaming the mutated node or one of its immediate constituents (the
  // offending argument of a swapped call, say) identifies the problem.
  if (*D <= 1)
    return Quality::Accurate;
  return Quality::GoodLocation;
}
