//===- Searcher.cpp - Top-down search implementation -----------------------==//

#include "core/Searcher.h"

#include "minicaml/Printer.h"

#include <cassert>

using namespace seminal;
using namespace seminal::caml;

bool Searcher::oracleSays() {
  if (OutOfBudget)
    return false;
  if (TheOracle.logicalCalls() >= Opts.MaxOracleCalls) {
    OutOfBudget = true;
    return false;
  }
  return TheOracle.typechecks(Work);
}

bool Searcher::testWith(const NodePath &Path, ExprPtr &Replacement) {
  ExprPtr Old = replaceAtPath(*Focus, Path, std::move(Replacement));
  bool Ok = oracleSays();
  Replacement = replaceAtPath(*Focus, Path, std::move(Old));
  return Ok;
}

void Searcher::addSuggestion(ChangeKind Kind, const NodePath &Path,
                             ExprPtr Replacement,
                             const std::string &Description,
                             bool LikelyUnbound, int Priority) {
  Suggestion S;
  S.Kind = Kind;
  S.Priority = Priority;
  S.ViaTriage = TriageDepth > 0;
  S.TriageRemovals = TriageDepth > 0 ? TriageRemovalCount : 0;
  S.Path = Path;
  Expr *Node = resolvePath(*Focus, Path);
  assert(Node && "suggestion path must resolve");
  S.Original = Node->clone();
  S.OriginalSize = Node->size();
  S.ReplacementSize = Replacement->size();
  S.Description = Description;
  S.LikelyUnboundVariable = LikelyUnbound;
  S.InSlice = CoreNodes.count(Node) != 0;

  // Install the replacement to render context and query its type.
  const Expr *Installed = Replacement.get();
  ExprPtr Old = replaceAtPath(*Focus, Path, std::move(Replacement));
  S.ContextAfter = printDecl(*Focus);
  {
    TraceLayerScope Layer(SearchLayer::TypeQuery);
    S.ReplacementType = TheOracle.typeOfNode(Work, Installed);
  }
  Replacement = replaceAtPath(*Focus, Path, std::move(Old));
  S.Replacement = std::move(Replacement);

  Suggestions.push_back(std::move(S));
}

bool Searcher::tryCandidates(const NodePath &Path,
                             std::vector<CandidateChange> Cands) {
  TraceLayerScope Layer(SearchLayer::Constructive);
  bool Any = false;
  // The worklist grows as probes expand into follow-ups.
  for (size_t I = 0; I < Cands.size() && !OutOfBudget; ++I) {
    CandidateChange &C = Cands[I];
    bool Ok;
    {
      TraceSpan Span(Opts.Trace, SpanKind::Candidate, "searcher.candidate");
      Ok = testWith(Path, C.Replacement);
      if (Span.enabled()) {
        Span.attr("description", C.Description);
        Span.attr("probe", C.IsProbe);
        Span.attr("priority", C.Priority);
        Span.attr("verdict", Ok);
      }
    }
    if (Ok && !C.IsProbe) {
      addSuggestion(ChangeKind::Constructive, Path, std::move(C.Replacement),
                    C.Description, /*LikelyUnbound=*/false, C.Priority);
      Any = true;
    }
    if (C.FollowUps) {
      std::vector<CandidateChange> More = C.FollowUps(Ok);
      for (auto &Next : More)
        Cands.push_back(std::move(Next));
    }
  }
  return Any;
}

bool Searcher::tryDeclChanges(unsigned DeclIndex) {
  TraceSpan Span(Opts.Trace, SpanKind::DeclChanges, "searcher.decl_changes");
  if (Span.enabled())
    Span.attr("decl", int64_t(DeclIndex));
  TraceLayerScope Layer(SearchLayer::DeclChange);
  bool Any = false;
  for (DeclChange &DC : enumerateDeclChanges(*Work.Decls[DeclIndex])) {
    if (OutOfBudget)
      break;
    std::swap(Work.Decls[DeclIndex], DC.Replacement);
    bool Ok = oracleSays();
    if (Ok) {
      Suggestion S;
      S.Kind = ChangeKind::Constructive;
      S.Path = NodePath(DeclIndex);
      S.Description = DC.Description;
      S.ContextAfter = printDecl(*Work.Decls[DeclIndex]);
      S.OriginalSize = 1; // a declaration-header tweak is a tiny change
      S.ReplacementSize = 1;
      Suggestions.push_back(std::move(S));
      Any = true;
    }
    std::swap(Work.Decls[DeclIndex], DC.Replacement);
  }
  return Any;
}

bool Searcher::searchExpr(const NodePath &Path) {
  if (OutOfBudget)
    return false;
  Expr *Node = resolvePath(*Focus, Path);
  assert(Node && "search path must resolve");
  if (Node->isWildcard())
    return false;

  TraceSpan Span(Opts.Trace, SpanKind::NodeVisit, "searcher.node");
  if (Span.enabled()) {
    Span.attr("path", Path.str());
    Span.attr("size", int64_t(Node->size()));
    Span.attr("line", int64_t(Node->Span.Begin.Line));
  }

  // 1. Removal: can [[...]] here fix the program? If not, the error is
  // not confined to this subtree; stop (Section 2.1).
  ExprPtr Wild = makeWildcard();
  {
    TraceLayerScope Layer(SearchLayer::Removal);
    if (!testWith(Path, Wild))
      return false;
  }

  // 2. Adaptation: does the node type-check when its own result type is
  // unconstrained by the parent (Section 2.3)?
  bool AdaptOk = false;
  {
    ExprPtr Adapted = makeAdapt(Node->clone());
    {
      TraceLayerScope Layer(SearchLayer::Adaptation);
      AdaptOk = testWith(Path, Adapted);
    }
    if (AdaptOk)
      addSuggestion(ChangeKind::Adaptation, Path, std::move(Adapted),
                    "the expression type-checks on its own but not in this "
                    "context");
  }

  // 3. Constructive changes from the enumerator (Section 2.2).
  bool AnyConstructive =
      tryCandidates(Path, enumerateChanges(*Node, Opts.Enum));

  // 4. Recurse into children looking for smaller fixes.
  bool AnyChild = false;
  for (unsigned I = 0; I < Node->numChildren(); ++I)
    if (searchExpr(Path.descend(I)))
      AnyChild = true;

  // 5. No child can be fixed alone: this node is a minimal removal site.
  if (!AnyChild) {
    // Triage trigger: a nontrivial subtree whose *only* fix is removal
    // smells like multiple independent errors (Section 2.4).
    if (!AnyConstructive && !AdaptOk && Opts.EnableTriage &&
        Node->size() >= Opts.TriageMinSize && triage(Path))
      return true;

    // A bound variable always type-checks on its own, so a removable but
    // non-adaptable variable is almost surely unbound (Section 3.3).
    bool LikelyUnbound = Node->kind() == Expr::Kind::Var && !AdaptOk;
    addSuggestion(ChangeKind::Removal, Path, makeWildcard(),
                  "remove this expression", LikelyUnbound);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Triage (Section 2.4)
//===----------------------------------------------------------------------===//

bool Searcher::triage(const NodePath &Path) {
  Expr *Node = resolvePath(*Focus, Path);
  TraceSpan Span(Opts.Trace, SpanKind::Triage, "searcher.triage");
  if (Span.enabled()) {
    Span.attr("path", Path.str());
    Span.attr("size", int64_t(Node->size()));
  }
  TraceLayerScope Layer(SearchLayer::Triage);
  if (Node->kind() == Expr::Kind::Match)
    return triageMatch(Path);
  return triageGeneric(Path);
}

bool Searcher::triageGeneric(const NodePath &Path) {
  Expr *Node = resolvePath(*Focus, Path);
  unsigned N = Node->numChildren();
  if (N < 2)
    return false;

  bool Found = false;
  for (unsigned Focus = 0; Focus < N && !OutOfBudget; ++Focus) {
    TraceSpan PhaseSpan(Opts.Trace, SpanKind::TriagePhase, "triage.focus");
    // Greedily wildcard the other children, rightmost first as in the
    // paper, until the context admits *some* fix for the focus (tested
    // with the focus itself wildcarded; the zero-removal configuration is
    // known to fail because no single-child removal succeeded -- the
    // paper's footnote).
    ExprPtr FocusOld = Node->swapChild(Focus, makeWildcard());
    std::vector<std::pair<unsigned, ExprPtr>> Removed;
    bool ContextWorks = false;
    for (unsigned J = N; J-- > 0;) {
      if (J == Focus)
        continue;
      Removed.emplace_back(J, Node->swapChild(J, makeWildcard()));
      if (oracleSays()) {
        ContextWorks = true;
        break;
      }
    }
    if (PhaseSpan.enabled()) {
      PhaseSpan.attr("focus", Focus);
      PhaseSpan.attr("context_works", ContextWorks);
      PhaseSpan.attr("siblings_removed", int64_t(Removed.size()));
    }

    if (ContextWorks) {
      // Put the focus back and search it, in regular mode, inside the
      // reduced context.
      ExprPtr Hole = Node->swapChild(Focus, std::move(FocusOld));
      ++TriageDepth;
      TriageRemovalCount += int(Removed.size());
      size_t Before = Suggestions.size();
      searchExpr(Path.descend(Focus));
      Found |= Suggestions.size() > Before;
      TriageRemovalCount -= int(Removed.size());
      --TriageDepth;
      FocusOld = Node->swapChild(Focus, std::move(Hole));
    }

    // Undo everything.
    for (auto It = Removed.rbegin(); It != Removed.rend(); ++It)
      Node->swapChild(It->first, std::move(It->second));
    if (FocusOld)
      Node->swapChild(Focus, std::move(FocusOld));
  }
  return Found;
}

bool Searcher::triageMatch(const NodePath &Path) {
  Expr *Node = resolvePath(*Focus, Path);
  unsigned NumArms = Node->numChildren() - 1;

  // Phase 1: the scrutinee, with patterns and bodies out of the picture:
  //   match scr with _ -> [[...]]
  {
    TraceSpan PhaseSpan(Opts.Trace, SpanKind::TriagePhase,
                        "triage.match_scrutinee");
    std::vector<MatchArm> OneArm;
    OneArm.push_back(MatchArm{makeWildPattern(), makeWildcard()});
    ExprPtr Reduced = makeMatch(Node->child(0)->clone(), std::move(OneArm));
    ExprPtr Old = replaceAtPath(*Focus, Path, std::move(Reduced));
    bool ScrutineeOk = oracleSays();
    if (!ScrutineeOk) {
      // The problem is (at least) in the scrutinee: search it here and
      // do not proceed to later phases (Section 2.4).
      ++TriageDepth;
      TriageRemovalCount += int(NumArms);
      size_t Before = Suggestions.size();
      searchExpr(Path.descend(0));
      bool Found = Suggestions.size() > Before;
      TriageRemovalCount -= int(NumArms);
      --TriageDepth;
      replaceAtPath(*Focus, Path, std::move(Old));
      return Found;
    }
    replaceAtPath(*Focus, Path, std::move(Old));
  }

  // Phase 2: the patterns, with bodies wildcarded.
  {
    TraceSpan PhaseSpan(Opts.Trace, SpanKind::TriagePhase,
                        "triage.match_patterns");
    std::vector<ExprPtr> OldBodies;
    for (unsigned I = 1; I <= NumArms; ++I)
      OldBodies.push_back(Node->swapChild(I, makeWildcard()));
    bool PatternsOk = oracleSays();
    bool Found = false;
    if (!PatternsOk)
      Found = triageMatchPatterns(Path);
    for (unsigned I = 1; I <= NumArms; ++I)
      Node->swapChild(I, std::move(OldBodies[I - 1]));
    if (!PatternsOk)
      return Found;
  }

  // Phase 3: the bodies, keeping patterns intact so their bindings stay
  // in scope; focus each body while greedily wildcarding the others.
  bool Found = false;
  for (unsigned Focus = 1; Focus <= NumArms && !OutOfBudget; ++Focus) {
    TraceSpan PhaseSpan(Opts.Trace, SpanKind::TriagePhase,
                        "triage.match_body");
    if (PhaseSpan.enabled())
      PhaseSpan.attr("focus", Focus);
    ExprPtr FocusOld = Node->swapChild(Focus, makeWildcard());
    std::vector<std::pair<unsigned, ExprPtr>> Removed;
    bool ContextWorks = oracleSays();
    if (!ContextWorks) {
      for (unsigned J = NumArms; J >= 1; --J) {
        if (J == Focus)
          continue;
        Removed.emplace_back(J, Node->swapChild(J, makeWildcard()));
        if (oracleSays()) {
          ContextWorks = true;
          break;
        }
      }
    }
    if (PhaseSpan.enabled()) {
      PhaseSpan.attr("context_works", ContextWorks);
      PhaseSpan.attr("siblings_removed", int64_t(Removed.size()));
    }
    if (ContextWorks) {
      ExprPtr Hole = Node->swapChild(Focus, std::move(FocusOld));
      ++TriageDepth;
      TriageRemovalCount += int(Removed.size());
      size_t Before = Suggestions.size();
      searchExpr(Path.descend(Focus));
      Found |= Suggestions.size() > Before;
      TriageRemovalCount -= int(Removed.size());
      --TriageDepth;
      FocusOld = Node->swapChild(Focus, std::move(Hole));
    }
    for (auto It = Removed.rbegin(); It != Removed.rend(); ++It)
      Node->swapChild(It->first, std::move(It->second));
    if (FocusOld)
      Node->swapChild(Focus, std::move(FocusOld));
  }
  return Found;
}

bool Searcher::triageMatchPatterns(const NodePath &Path) {
  Expr *Node = resolvePath(*Focus, Path);
  unsigned NumArms = Node->numChildren() - 1;
  bool Found = false;

  // First attempt: with every other pattern *kept*, can a subpattern of
  // arm i be wildcarded to reconcile the arms? This catches inter-pattern
  // conflicts (e.g. `[]` in one arm versus `5` in another).
  for (unsigned Focus = 0; Focus < NumArms && !OutOfBudget; ++Focus) {
    ++TriageDepth;
    Found |= searchPatternFix(Path, Focus);
    --TriageDepth;
  }
  if (Found)
    return true;

  // Fallback: isolate each pattern by wildcarding the others, then look
  // for a subpattern fix of the isolated pattern (scrutinee conflicts).
  for (unsigned Focus = 0; Focus < NumArms && !OutOfBudget; ++Focus) {
    std::vector<std::pair<unsigned, PatternPtr>> Saved;
    for (unsigned J = 0; J < NumArms; ++J) {
      if (J == Focus)
        continue;
      Saved.emplace_back(J, std::move(Node->ArmPats[J]));
      Node->ArmPats[J] = makeWildPattern();
    }
    if (!oracleSays()) {
      // The focused pattern is broken on its own: find the minimal
      // subpattern whose replacement by _ repairs it.
      ++TriageDepth;
      TriageRemovalCount += int(NumArms - 1);
      Found |= searchPatternFix(Path, Focus);
      TriageRemovalCount -= int(NumArms - 1);
      --TriageDepth;
    }
    for (auto &KV : Saved)
      Node->ArmPats[KV.first] = std::move(KV.second);
  }
  return Found;
}

namespace {

/// Collects mutable slots for every subpattern of \p P in preorder.
void collectPatternSlots(PatternPtr &P, std::vector<PatternPtr *> &Out) {
  Out.push_back(&P);
  for (auto &Elem : P->Elems)
    collectPatternSlots(Elem, Out);
  if (P->Head)
    collectPatternSlots(P->Head, Out);
  if (P->Tail)
    collectPatternSlots(P->Tail, Out);
  if (P->Arg)
    collectPatternSlots(P->Arg, Out);
}

} // namespace

bool Searcher::searchPatternFix(const NodePath &MatchPath,
                                unsigned ArmIndex) {
  Expr *Node = resolvePath(*Focus, MatchPath);
  TraceSpan Span(Opts.Trace, SpanKind::PatternFix, "searcher.pattern_fix");
  if (Span.enabled()) {
    Span.attr("path", MatchPath.str());
    Span.attr("arm", ArmIndex);
  }
  TraceLayerScope Layer(SearchLayer::PatternFix);
  std::vector<PatternPtr *> Slots;
  collectPatternSlots(Node->ArmPats[ArmIndex], Slots);

  // Preorder means parents precede children: remember the smallest
  // (deepest) fixing slot by scanning all slots and keeping the one with
  // the smallest subtree.
  PatternPtr *Best = nullptr;
  unsigned BestSize = ~0u;
  for (PatternPtr *Slot : Slots) {
    if (OutOfBudget)
      break;
    if ((*Slot)->kind() == Pattern::Kind::Wild)
      continue;
    PatternPtr Old = std::move(*Slot);
    *Slot = makeWildPattern();
    bool Ok = oracleSays();
    *Slot = std::move(Old);
    if (Ok && (*Slot)->size() < BestSize) {
      Best = Slot;
      BestSize = (*Slot)->size();
    }
  }
  if (!Best)
    return false;

  Suggestion S;
  S.Kind = ChangeKind::PatternFix;
  S.ViaTriage = true;
  S.TriageRemovals = TriageRemovalCount;
  S.Path = MatchPath;
  S.Description = "replace the pattern with _";
  S.PatternBefore = (*Best)->str();
  S.PatternAfter = "_";
  S.OriginalSize = (*Best)->size();
  S.ReplacementSize = 1;

  PatternPtr Old = std::move(*Best);
  *Best = makeWildPattern();
  S.ContextAfter = printDecl(*Focus);
  *Best = std::move(Old);

  Suggestions.push_back(std::move(S));
  return true;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

void Searcher::prepareSlice() {
  SliceResult.reset();
  CoreNodes.clear();
  if (!Opts.ComputeSlice)
    return;

  TraceSpan Span(Opts.Trace, SpanKind::Slice, "searcher.slice");
  analysis::ErrorSlice S =
      analysis::computeErrorSlice(Work, FocusDecl, Opts.Slice);
  if (Span.enabled()) {
    Span.attr("valid", S.Valid);
    if (S.Valid) {
      Span.attr("influence", int64_t(S.Influence.size()));
      Span.attr("core", int64_t(S.Core.size()));
      Span.attr("decl_nodes", int64_t(S.DeclNodes));
      Span.attr("minimize_checks", int64_t(S.MinimizeChecks));
      Span.attr("reaches_prefix", S.PrefixInfluence);
      Span.attr("reaches_header", S.DeclHeaderInfluence);
    }
  }
  if (!S.Valid)
    return; // Unsliceable failure: no slice to show or boost.

  for (const NodePath &P : S.Core)
    if (const Expr *E = resolvePath(*Focus, P))
      CoreNodes.insert(E);
  SliceResult = std::move(S);
}

SearchOutput Searcher::run(const Program &Input) {
  SearchOutput Out;
  Suggestions.clear();
  OutOfBudget = false;
  SliceResult.reset();
  CoreNodes.clear();

  TraceSpan RunSpan(Opts.Trace, SpanKind::Search, "searcher.run");
  if (RunSpan.enabled())
    RunSpan.attr("decls", int64_t(Input.Decls.size()));

  // Files that type-check bypass the system entirely (Figure 1).
  Work.Decls.clear();
  Focus.reset();
  {
    TraceLayerScope Layer(SearchLayer::InitialCheck);
    if (TheOracle.typechecks(Input)) {
      Out.InputTypechecks = true;
      return Out;
    }
  }

  // Prefix localization: grow the working program one declaration at a
  // time; the first prefix that fails pins the failing declaration.
  std::optional<unsigned> Failing;
  {
    TraceSpan LocalizeSpan(Opts.Trace, SpanKind::Localize,
                           "searcher.localize");
    TraceLayerScope Layer(SearchLayer::Localize);
    for (unsigned I = 0; I < Input.Decls.size(); ++I) {
      Work.Decls.push_back(Input.Decls[I]);
      if (!oracleSays()) {
        Failing = I;
        break;
      }
    }
    if (LocalizeSpan.enabled() && Failing)
      LocalizeSpan.attr("failing_decl", *Failing);
  }
  if (!Failing) {
    // Every prefix passes yet the whole fails -- impossible for a whole
    // program, defensive for budget exhaustion.
    Out.BudgetExhausted = OutOfBudget;
    return Out;
  }
  Out.FailingDecl = *Failing;
  FocusDecl = *Failing;

  const Decl &D = *Input.Decls[FocusDecl];
  if (D.kind() == Decl::Kind::Let && D.Rhs) {
    // Edits swap nodes inside the focus declaration only, so it alone is
    // cloned; the prefix stays shared with the input and is never
    // mutated, which is the seed's validity requirement. Every oracle
    // call from here on asks about Work = unchanged prefix + edited
    // FocusDecl; let accelerated oracles snapshot the prefix.
    Focus = D.clone();
    Work.Decls[FocusDecl] = Focus;
    TheOracle.seedPrefix(Work, FocusDecl);
    prepareSlice();
    tryDeclChanges(FocusDecl);
    searchExpr(NodePath(FocusDecl));
    TheOracle.clearPrefix();
  }
  // Type/exception declarations produce no searchable expressions; the
  // conventional message stands alone for those.

  Out.Slice = std::move(SliceResult);

  if (RunSpan.enabled()) {
    RunSpan.attr("suggestions", int64_t(Suggestions.size()));
    RunSpan.attr("budget_exhausted", OutOfBudget);
    if (Out.Slice)
      RunSpan.attr("slice.influence", int64_t(Out.Slice->Influence.size()));
  }
  Out.Suggestions = std::move(Suggestions);
  Out.BudgetExhausted = OutOfBudget;
  return Out;
}
