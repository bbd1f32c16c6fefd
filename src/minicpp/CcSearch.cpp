//===- CcSearch.cpp - Search-based messages for mini-C++ -------------------==//

#include "minicpp/CcSearch.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

using namespace seminal;
using namespace seminal::cpp;

std::string CcSuggestion::str() const {
  std::ostringstream OS;
  OS << "Try replacing\n    " << Before << "\nwith\n    " << After;
  OS << "\n(" << Description << "; fixes " << ErrorsFixed
     << " of the reported errors)";
  return OS.str();
}

std::string CcReport::bestMessage() const {
  if (Baseline.ok())
    return "No type errors.";
  if (Suggestions.empty())
    return "No suggestion found; the compiler output is:\n" +
           Baseline.str();
  return "In function '" + TargetFunction + "': " +
         Suggestions.front().str();
}

namespace {

/// Multiset of error signatures.
std::map<std::string, int> signatureSet(const CcCheckResult &R) {
  std::map<std::string, int> S;
  for (const auto &E : R.Errors)
    ++S[E.signature()];
  return S;
}

/// Success per Section 4.2: eliminates some errors, introduces none.
/// \returns the number of eliminated errors (0 = not a success).
unsigned improvement(const std::map<std::string, int> &Base,
                     const CcCheckResult &New) {
  std::map<std::string, int> NewSet = signatureSet(New);
  unsigned Eliminated = 0;
  for (const auto &KV : NewSet) {
    auto It = Base.find(KV.first);
    if (It == Base.end() || KV.second > It->second)
      return 0; // a new error appeared
  }
  for (const auto &KV : Base) {
    auto It = NewSet.find(KV.first);
    int Remaining = It == NewSet.end() ? 0 : It->second;
    Eliminated += unsigned(KV.second - Remaining);
  }
  return Eliminated;
}

/// Identifies a subexpression inside a statement's expression tree.
using ExprPath = std::vector<unsigned>;

CcExpr *resolveExpr(CcExpr *Root, const ExprPath &Path) {
  CcExpr *Node = Root;
  for (unsigned Step : Path) {
    if (Step >= Node->numChildren())
      return nullptr;
    Node = Node->child(Step);
  }
  return Node;
}

/// Swaps the node at \p Path for \p New, returning the old subtree.
/// Empty paths swap through \p RootSlot.
CcExprPtr swapAt(CcExprPtr &RootSlot, const ExprPath &Path, CcExprPtr New) {
  if (Path.empty()) {
    CcExprPtr Old = std::move(RootSlot);
    RootSlot = std::move(New);
    return Old;
  }
  CcExpr *Parent = RootSlot.get();
  for (size_t I = 0; I + 1 < Path.size(); ++I)
    Parent = Parent->child(Path[I]);
  CcExprPtr Old = std::move(Parent->Children[Path.back()]);
  Parent->Children[Path.back()] = std::move(New);
  return Old;
}

void collectPaths(const CcExpr *Node, ExprPath &Prefix,
                  std::vector<ExprPath> &Out) {
  Out.push_back(Prefix);
  for (unsigned I = 0; I < Node->numChildren(); ++I) {
    Prefix.push_back(I);
    collectPaths(Node->child(I), Prefix, Out);
    Prefix.pop_back();
  }
}

/// One candidate expression-level edit.
struct ExprEdit {
  ExprPath Path;
  CcExprPtr Replacement;
  std::string Description;
  CcSuggestion::Kind Kind = CcSuggestion::Kind::Constructive;
};

/// The C++ enumerator: candidate edits for the subtree at \p Path.
void enumerateExprEdits(const CcExpr &Node, const ExprPath &Path,
                        std::vector<ExprEdit> &Out) {
  auto Add = [&](CcExprPtr Replacement, const std::string &Description,
                 CcSuggestion::Kind Kind) {
    ExprEdit E;
    E.Path = Path;
    E.Replacement = std::move(Replacement);
    E.Description = Description;
    E.Kind = Kind;
    Out.push_back(std::move(E));
  };

  // ptr_fun wrapping/unwrapping: the STL-specific change of Section 4.1.
  if (Node.kind() == CcExpr::Kind::Var ||
      Node.kind() == CcExpr::Kind::Member) {
    std::vector<CcExprPtr> Args;
    Args.push_back(Node.clone());
    Add(ccCallNamed("ptr_fun", std::move(Args)),
        "wrap the function pointer in ptr_fun",
        CcSuggestion::Kind::Constructive);
  }
  if (Node.kind() == CcExpr::Kind::Call && Node.numChildren() == 2 &&
      Node.child(0)->kind() == CcExpr::Kind::Var &&
      Node.child(0)->Name == "ptr_fun")
    Add(Node.child(1)->clone(), "remove the ptr_fun wrapper",
        CcSuggestion::Kind::Constructive);

  // e.f <-> e->f.
  if (Node.kind() == CcExpr::Kind::Member) {
    CcExprPtr Flipped = Node.clone();
    Flipped->IsArrow = !Node.IsArrow;
    Add(std::move(Flipped),
        Node.IsArrow ? "use '.' instead of '->'" : "use '->' instead of '.'",
        CcSuggestion::Kind::Constructive);
  }

  // Call-argument rearrangement, like the Caml catalog.
  if (Node.kind() == CcExpr::Kind::Call && Node.numChildren() >= 3) {
    unsigned NumArgs = Node.numChildren() - 1;
    for (unsigned I = 0; I + 1 < NumArgs; ++I) {
      CcExprPtr Swapped = Node.clone();
      std::swap(Swapped->Children[I + 1], Swapped->Children[I + 2]);
      Add(std::move(Swapped),
          "swap arguments " + std::to_string(I + 1) + " and " +
              std::to_string(I + 2),
          CcSuggestion::Kind::Constructive);
    }
    for (unsigned I = 0; I < NumArgs; ++I) {
      CcExprPtr Fewer = Node.clone();
      Fewer->Children.erase(Fewer->Children.begin() + 1 + I);
      Add(std::move(Fewer),
          "remove argument " + std::to_string(I + 1),
          CcSuggestion::Kind::Constructive);
    }
  }

  // Adaptation and removal via magicFun (Section 4.2). These often fail
  // to deduce -- exactly the paper's point -- and then hoisting below is
  // the fallback.
  {
    std::vector<CcExprPtr> Args;
    Args.push_back(Node.clone());
    Add(ccCallNamed("magicFun", std::move(Args)),
        "the expression type-checks but its context rejects it",
        CcSuggestion::Kind::Adaptation);
  }
  {
    std::vector<CcExprPtr> Args;
    Args.push_back(ccIntLit(0));
    Add(ccCallNamed("magicFun", std::move(Args)), "remove this expression",
        CcSuggestion::Kind::Removal);
  }
}

} // namespace

CcReport cpp::runCppSeminal(CcProgram &Prog, TraceSink *Trace) {
  CcReport Report;
  TraceSpan RunSpan(Trace, SpanKind::CcSearch, "ccsearch.run");

  {
    TraceLayerScope Layer(SearchLayer::InitialCheck);
    TraceSpan Span(Trace, SpanKind::OracleCall, "cc.oracle");
    Report.Baseline = checkProgram(Prog);
    if (Span.enabled()) {
      Span.attr("layer", searchLayerName(traceCurrentLayer()));
      Span.attr("verdict", Report.Baseline.ok());
      Span.attr("cache_hit", false);
      Span.attr("served_by", "cc-typecheck");
      Span.attr("errors", int64_t(Report.Baseline.Errors.size()));
    }
  }
  size_t Oracle = 1;
  if (Report.Baseline.ok()) {
    Report.OracleCalls = Oracle;
    return Report;
  }

  // Focus on the ordinary function containing the first error.
  Report.TargetFunction = Report.Baseline.Errors.front().InFunction;
  if (RunSpan.enabled())
    RunSpan.attr("target_function", Report.TargetFunction);
  CcFuncDecl *Target = Prog.findFunc(Report.TargetFunction);
  if (!Target) {
    Report.OracleCalls = Oracle;
    return Report;
  }

  std::map<std::string, int> Base = signatureSet(Report.Baseline);

  auto Test = [&]() -> unsigned {
    ++Oracle;
    TraceSpan Span(Trace, SpanKind::OracleCall, "cc.oracle");
    unsigned Fixed = improvement(Base, checkProgram(Prog));
    if (Span.enabled()) {
      Span.attr("layer", searchLayerName(traceCurrentLayer()));
      Span.attr("verdict", Fixed > 0);
      Span.attr("cache_hit", false);
      Span.attr("served_by", "cc-typecheck");
      Span.attr("errors_fixed", int64_t(Fixed));
    }
    return Fixed;
  };

  // Statement-level changes: removal and hoisting.
  for (size_t I = 0; I < Target->Body.size(); ++I) {
    // Removal: neutralize the statement.
    {
      TraceLayerScope Layer(SearchLayer::Removal);
      CcStmt Saved = Target->Body[I].clone();
      std::vector<CcExprPtr> Args;
      Args.push_back(ccIntLit(0));
      Target->Body[I] = ccExprStmt(ccCallNamed("magicFunVoid",
                                               std::move(Args)));
      unsigned Fixed = Test();
      if (Fixed > 0) {
        CcSuggestion S;
        S.TheKind = CcSuggestion::Kind::Removal;
        S.Description = "remove this statement";
        S.StmtIndex = int(I);
        S.Before = Saved.str();
        S.After = "(statement removed)";
        S.OriginalSize = Saved.E ? Saved.E->size() : 1;
        S.ErrorsFixed = Fixed;
        Report.Suggestions.push_back(std::move(S));
      }
      Target->Body[I] = std::move(Saved);
    }

    // Hoisting: f(e1, ..., en); => magicFunVoid(e1); ... magicFunVoid(en);
    if (Target->Body[I].TheKind == CcStmt::Kind::Expr &&
        Target->Body[I].E->kind() == CcExpr::Kind::Call &&
        Target->Body[I].E->numChildren() >= 2) {
      TraceLayerScope Layer(SearchLayer::Hoist);
      std::vector<CcStmt> SavedBody;
      for (const auto &S : Target->Body)
        SavedBody.push_back(S.clone());
      const CcExpr *CallNode = Target->Body[I].E.get();
      std::vector<CcStmt> Hoisted;
      for (unsigned A = 1; A < CallNode->numChildren(); ++A) {
        std::vector<CcExprPtr> Args;
        Args.push_back(CallNode->child(A)->clone());
        Hoisted.push_back(
            ccExprStmt(ccCallNamed("magicFunVoid", std::move(Args))));
      }
      std::string Before = Target->Body[I].str();
      Target->Body.erase(Target->Body.begin() + long(I));
      Target->Body.insert(Target->Body.begin() + long(I),
                          std::make_move_iterator(Hoisted.begin()),
                          std::make_move_iterator(Hoisted.end()));
      unsigned Fixed = Test();
      if (Fixed > 0) {
        CcSuggestion S;
        S.TheKind = CcSuggestion::Kind::Hoist;
        S.Description =
            "the call itself is the problem; its arguments are fine "
            "individually";
        S.StmtIndex = int(I);
        S.Before = Before;
        S.After = "(arguments hoisted to separate statements)";
        S.OriginalSize = 1000; // hoisting is the coarsest change
        S.ErrorsFixed = Fixed;
        Report.Suggestions.push_back(std::move(S));
      }
      Target->Body = std::move(SavedBody);
    }

    // Expression-level edits inside the statement.
    if (!Target->Body[I].E)
      continue;
    std::vector<ExprPath> Paths;
    ExprPath Prefix;
    collectPaths(Target->Body[I].E.get(), Prefix, Paths);
    for (const ExprPath &Path : Paths) {
      CcExpr *Node = resolveExpr(Target->Body[I].E.get(), Path);
      std::vector<ExprEdit> Edits;
      enumerateExprEdits(*Node, Path, Edits);
      for (ExprEdit &Edit : Edits) {
        SearchLayer EditLayer = SearchLayer::Constructive;
        if (Edit.Kind == CcSuggestion::Kind::Adaptation)
          EditLayer = SearchLayer::Adaptation;
        else if (Edit.Kind == CcSuggestion::Kind::Removal)
          EditLayer = SearchLayer::Removal;
        TraceLayerScope Layer(EditLayer);
        std::string Before = Node->str();
        std::string After = Edit.Replacement->str();
        unsigned OriginalSize = Node->size();
        CcExprPtr Old = swapAt(Target->Body[I].E, Edit.Path,
                               std::move(Edit.Replacement));
        unsigned Fixed = Test();
        if (Fixed > 0) {
          CcSuggestion S;
          S.TheKind = Edit.Kind;
          S.Description = Edit.Description;
          S.StmtIndex = int(I);
          S.Before = Before;
          S.After = Edit.Kind == CcSuggestion::Kind::Removal
                        ? "[[...]]"
                        : After;
          S.OriginalSize = OriginalSize;
          S.ErrorsFixed = Fixed;
          Report.Suggestions.push_back(std::move(S));
        }
        swapAt(Target->Body[I].E, Edit.Path, std::move(Old));
      }
    }
  }

  // Rank: more errors fixed first; then constructive < adaptation <
  // removal < hoist; then smaller expressions.
  std::stable_sort(Report.Suggestions.begin(), Report.Suggestions.end(),
                   [](const CcSuggestion &A, const CcSuggestion &B) {
                     if (A.ErrorsFixed != B.ErrorsFixed)
                       return A.ErrorsFixed > B.ErrorsFixed;
                     if (A.TheKind != B.TheKind)
                       return int(A.TheKind) < int(B.TheKind);
                     return A.OriginalSize < B.OriginalSize;
                   });
  Report.OracleCalls = Oracle;
  return Report;
}
