//===- Slice.cpp - Constraint-provenance error slicing ---------------------==//

#include "analysis/Slice.h"

#include "analysis/Provenance.h"
#include "minicaml/Infer.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace seminal;
using namespace seminal::analysis;
using namespace seminal::caml;

namespace {

/// AST nodes attributed to the clash component, by node kind.
struct Members {
  std::unordered_set<const void *> Exprs;
  std::unordered_set<const void *> Patterns;
  std::unordered_set<const void *> Decls;

  void add(const ProvenanceTag &Tag) {
    switch (Tag.Kind) {
    case ProvenanceNodeKind::None:
      break;
    case ProvenanceNodeKind::Expr:
      Exprs.insert(Tag.Node);
      break;
    case ProvenanceNodeKind::Pattern:
      Patterns.insert(Tag.Node);
      break;
    case ProvenanceNodeKind::Decl:
      Decls.insert(Tag.Node);
      break;
    }
  }
};

/// Worklist closure: starting from the clash seed, pull in every event
/// that transitively shares a type variable with the component, then
/// attribute every touched term to its allocating node. \p InvolvedOut
/// receives the named constructors seen in the component.
Members closeOverClash(const ProvenanceSink &Sink,
                       std::vector<std::string> &InvolvedOut) {
  Members M;

  // Variable object -> indices of events touching it.
  std::unordered_map<const Type *, std::vector<size_t>> Index;
  // Constructor object -> indices of events touching it. Used for the
  // clash seed only: by clash time prune() may have resolved the original
  // variables away entirely (e.g. instantiate() returns the pruned type),
  // so the clashing constructor OBJECTS are the remaining witnesses of
  // the flow -- the binding events that produced them flattened both
  // sides and therefore recorded the same objects. General con-sharing is
  // deliberately NOT a connector (instantiation shares nullary cons
  // across every use of a scheme, which would merge unrelated uses).
  std::unordered_map<const Type *, std::vector<size_t>> ConIndex;
  for (size_t I = 0; I < Sink.Events.size(); ++I) {
    for (const Type *V : Sink.Events[I].Vars)
      Index[V].push_back(I);
    for (const Type *C : Sink.Events[I].Cons)
      ConIndex[C].push_back(I);
  }

  std::unordered_set<const Type *> RelVars; // component variables
  std::unordered_set<const Type *> RelAll;  // every component term
  std::vector<const Type *> Worklist;
  std::vector<char> Relevant(Sink.Events.size(), 0);

  auto addEvent = [&](const ProvenanceSink::Event &E) {
    M.add(E.Tag);
    for (const Type *V : E.Vars) {
      RelAll.insert(V);
      if (RelVars.insert(V).second)
        Worklist.push_back(V);
    }
    for (const Type *C : E.Cons)
      RelAll.insert(C);
  };

  auto pullEvents = [&](const std::vector<size_t> &Indices) {
    for (size_t I : Indices) {
      if (Relevant[I])
        continue;
      Relevant[I] = 1;
      addEvent(Sink.Events[I]);
    }
  };

  addEvent(Sink.TheClash.Seed);
  for (const Type *C : Sink.TheClash.Seed.Cons) {
    auto It = ConIndex.find(C);
    if (It != ConIndex.end())
      pullEvents(It->second);
  }
  while (!Worklist.empty()) {
    const Type *V = Worklist.back();
    Worklist.pop_back();
    auto It = Index.find(V);
    if (It != Index.end())
      pullEvents(It->second);
  }

  for (const Type *T : RelAll) {
    auto It = Sink.Allocs.find(T);
    if (It != Sink.Allocs.end())
      M.add(It->second);
  }

  std::unordered_set<std::string> Names;
  for (const Type *T : RelAll) {
    auto It = Sink.ConNames.find(T);
    if (It != Sink.ConNames.end())
      Names.insert(It->second);
  }
  InvolvedOut.assign(Names.begin(), Names.end());
  std::sort(InvolvedOut.begin(), InvolvedOut.end());
  return M;
}

/// Collects every node of a pattern tree into \p Out.
void collectPatternNodes(const Pattern &P,
                         std::unordered_set<const void *> &Out) {
  Out.insert(&P);
  for (const auto &E : P.Elems)
    collectPatternNodes(*E, Out);
  if (P.Head)
    collectPatternNodes(*P.Head, Out);
  if (P.Tail)
    collectPatternNodes(*P.Tail, Out);
  if (P.Arg)
    collectPatternNodes(*P.Arg, Out);
}

bool patternTreeHits(const Pattern &P,
                     const std::unordered_set<const void *> &Hit) {
  if (Hit.count(&P))
    return true;
  for (const auto &E : P.Elems)
    if (patternTreeHits(*E, Hit))
      return true;
  if (P.Head && patternTreeHits(*P.Head, Hit))
    return true;
  if (P.Tail && patternTreeHits(*P.Tail, Hit))
    return true;
  return P.Arg && patternTreeHits(*P.Arg, Hit);
}

/// Preorder walk of the focus declaration's expression tree, mapping
/// member identities back to node paths. A pattern member marks the
/// expression that owns the pattern (match arm, fun parameter, let
/// binding); constraints of a pattern are discharged exactly when its
/// owner is.
struct FocusWalk {
  const Members &M;
  std::vector<std::pair<NodePath, SourceSpan>> Influence;
  std::unordered_set<const void *> ExprsSeen;
  std::unordered_set<const void *> PatternsSeen;
  size_t DeclNodes = 0;

  explicit FocusWalk(const Members &M) : M(M) {}

  void walk(const Expr &E, const NodePath &Path) {
    ++DeclNodes;
    ExprsSeen.insert(&E);
    bool Hit = M.Exprs.count(&E) != 0;
    auto checkPatterns = [&](const Pattern &P) {
      collectPatternNodes(P, PatternsSeen);
      if (!Hit && patternTreeHits(P, M.Patterns))
        Hit = true;
    };
    if (E.Binding)
      checkPatterns(*E.Binding);
    for (const auto &P : E.Params)
      checkPatterns(*P);
    for (const auto &P : E.ArmPats)
      checkPatterns(*P);
    if (Hit)
      Influence.emplace_back(Path, E.Span);
    for (unsigned I = 0; I < E.numChildren(); ++I)
      walk(*E.child(I), Path.descend(I));
  }
};

bool isStrictAncestor(const NodePath &A, const NodePath &B) {
  return A.Steps.size() < B.Steps.size() &&
         std::equal(A.Steps.begin(), A.Steps.end(), B.Steps.begin());
}

/// Sets Core to the influence nodes not \p Dropped that have no kept
/// strict descendant: the antichain of the deepest kept nodes.
void keepDeepest(ErrorSlice &S, const std::vector<char> &Dropped) {
  for (size_t I = 0; I < S.Influence.size(); ++I) {
    if (Dropped[I])
      continue;
    bool HasKeptDescendant = false;
    for (size_t J = 0; J < S.Influence.size() && !HasKeptDescendant; ++J)
      HasKeptDescendant =
          !Dropped[J] && isStrictAncestor(S.Influence[I], S.Influence[J]);
    if (!HasKeptDescendant) {
      S.Core.push_back(S.Influence[I]);
      S.CoreSpans.push_back(S.InfluenceSpans[I]);
    }
  }
}

/// Greedy minimal-unsat-core pass: visit influence nodes deepest-first;
/// wildcard each candidate and keep the wildcard installed whenever the
/// program still fails (the candidate's constraints are not needed for
/// the clash). What survives is a jointly-unsatisfiable set even in the
/// presence of redundant constraints, because each keep decision is made
/// against the program with all previous drops applied.
void minimizeCore(ErrorSlice &S, const Program &Prog, unsigned FocusDecl,
                  const SliceOptions &Opts) {
  auto CP = InferenceCheckpoint::create(Prog, FocusDecl);
  if (!CP)
    return; // Prefix refuses to check; the caller falls back.

  // The checkpoint holds the prefix; only the focus declaration is edited.
  std::shared_ptr<Decl> Work = Prog.Decls[FocusDecl]->clone();

  // Deepest-first, preorder-stable within a depth.
  std::vector<size_t> Order(S.Influence.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return S.Influence[A].Steps.size() > S.Influence[B].Steps.size();
  });

  std::vector<char> Dropped(S.Influence.size(), 0);
  std::vector<char> Decided(S.Influence.size(), 0);
  for (size_t Idx : Order) {
    if (S.MinimizeChecks >= Opts.MaxMinimizeChecks)
      break; // Undecided candidates stay in the core (conservative).
    const NodePath &P = S.Influence[Idx];
    // An ancestor of a node already kept is redundant by construction
    // (the antichain filter below removes it); skip the check.
    bool CoversKept = false;
    for (size_t J = 0; J < S.Influence.size() && !CoversKept; ++J)
      CoversKept = Decided[J] && !Dropped[J] &&
                   isStrictAncestor(P, S.Influence[J]);
    if (CoversKept) {
      Decided[Idx] = 1;
      continue;
    }
    ExprPtr Old = replaceAtPath(*Work, P, caml::makeWildcard());
    ++S.MinimizeChecks;
    TypecheckResult R = CP->checkDecl(*Work);
    if (!R.ok()) {
      Dropped[Idx] = 1; // Clash survives without it: leave the wildcard.
    } else {
      replaceAtPath(*Work, P, std::move(Old));
    }
    Decided[Idx] = 1;
  }

  keepDeepest(S, Dropped);
}

/// True when one path is a (non-strict) prefix of the other: the nodes
/// lie on one root-to-leaf line, i.e. their subtrees are not disjoint.
bool pathsRelated(const NodePath &A, const NodePath &B) {
  const NodePath &Short = A.Steps.size() <= B.Steps.size() ? A : B;
  const NodePath &Long = A.Steps.size() <= B.Steps.size() ? B : A;
  return std::equal(Short.Steps.begin(), Short.Steps.end(),
                    Long.Steps.begin());
}

/// Collects the maximal subtrees of \p E disjoint from every core path:
/// preorder descent that stops (and records the path) at the first node
/// unrelated to all of them.
void collectCarvePoints(const Expr &E, const NodePath &Path,
                        const std::vector<NodePath> &Core,
                        std::vector<NodePath> &Out) {
  bool Related = false;
  for (const NodePath &Q : Core)
    if (pathsRelated(Path, Q)) {
      Related = true;
      break;
    }
  if (!Related) {
    Out.push_back(Path);
    return;
  }
  for (unsigned I = 0; I < E.numChildren(); ++I)
    collectCarvePoints(*E.child(I), Path.descend(I), Core, Out);
}

/// Verifies the carved witness: the focus declaration with every maximal
/// core-disjoint subtree wildcarded must still fail to type-check. One
/// internal inference.
bool coreWitnessFails(ErrorSlice &S, const Program &Prog,
                      unsigned FocusDecl) {
  std::vector<NodePath> CarvePoints;
  collectCarvePoints(*Prog.Decls[FocusDecl]->Rhs, NodePath(FocusDecl),
                     S.Core, CarvePoints);
  // Nothing to carve: the witness is the original declaration, whose
  // failure is already established.
  if (CarvePoints.empty())
    return true;

  auto CP = InferenceCheckpoint::create(Prog, FocusDecl);
  if (!CP)
    return false;
  std::shared_ptr<Decl> Work = Prog.Decls[FocusDecl]->clone();
  // Carve points are pairwise disjoint, so installing one never shifts
  // the path of another.
  for (const NodePath &P : CarvePoints)
    replaceAtPath(*Work, P, caml::makeWildcard());
  ++S.MinimizeChecks;
  return !CP->checkDecl(*Work).ok();
}

/// Finds the deepest expression whose span encloses \p Target; ties are
/// broken toward the descendant (visited later on the path down).
void findAnchor(const Expr &E, const NodePath &Path, const SourceSpan &Target,
                std::optional<NodePath> &Best, SourceSpan &BestSpan) {
  if (E.Span.isValid() && E.Span.encloses(Target)) {
    Best = Path;
    BestSpan = E.Span;
  }
  for (unsigned I = 0; I < E.numChildren(); ++I)
    findAnchor(*E.child(I), Path.descend(I), Target, Best, BestSpan);
}

/// Span-anchored fallback for non-unification failures: no constraint
/// component exists, so anchor the core on the deepest node enclosing the
/// checker's error span. The influence set is the anchor's subtree plus
/// its ancestors, and the slice is only valid when the carved witness
/// (everything else wildcarded) still fails.
void anchorSlice(ErrorSlice &S, const Program &Prog, unsigned FocusDecl,
                 const TypecheckResult &R) {
  if (!R.Error || !R.Error->Span.isValid())
    return;
  const Expr &Rhs = *Prog.Decls[FocusDecl]->Rhs;

  std::optional<NodePath> Anchor;
  SourceSpan AnchorSpan;
  findAnchor(Rhs, NodePath(FocusDecl), R.Error->Span, Anchor, AnchorSpan);
  if (!Anchor)
    return;

  S.SpanAnchored = true;
  S.ClashLeft = R.Error->ActualType;
  S.ClashRight = R.Error->ExpectedType;
  S.ClashSpan = R.Error->Span;
  S.Core.push_back(*Anchor);
  S.CoreSpans.push_back(AnchorSpan);
  // No clash component exists to rule the header out, so report it as
  // involved.
  S.DeclHeaderInfluence = true;

  // Influence := ancestors of the anchor + the anchor's subtree.
  struct InfluenceWalk {
    const NodePath &Anchor;
    ErrorSlice &S;
    size_t Nodes = 0;
    void walk(const Expr &E, const NodePath &Path) {
      ++Nodes;
      bool Related = pathsRelated(Path, Anchor);
      if (Related) {
        S.Influence.push_back(Path);
        S.InfluenceSpans.push_back(E.Span);
      }
      // Subtrees unrelated to the anchor contribute nothing; descend only
      // for the node count.
      for (unsigned I = 0; I < E.numChildren(); ++I)
        walk(*E.child(I), Path.descend(I));
    }
  } W{*Anchor, S};
  W.walk(Rhs, NodePath(FocusDecl));
  S.DeclNodes = W.Nodes;

  S.Valid = coreWitnessFails(S, Prog, FocusDecl);
  if (!S.Valid) {
    // Witness refused: the guessed anchor does not explain the failure.
    // Report nothing rather than an unsound slice.
    S = ErrorSlice();
    S.DeclIndex = FocusDecl;
  }
}

} // namespace

ErrorSlice analysis::computeErrorSlice(const Program &Prog,
                                       unsigned FocusDecl,
                                       const SliceOptions &Opts) {
  ErrorSlice S;
  S.DeclIndex = FocusDecl;
  if (FocusDecl >= Prog.Decls.size())
    return S;
  const Decl &Focus = *Prog.Decls[FocusDecl];
  if (Focus.kind() != Decl::Kind::Let || !Focus.Rhs)
    return S;

  // One provenance-instrumented inference of prefix + focus declaration.
  ProvenanceSink Sink;
  TypecheckResult R;
  {
    ProvenanceScope Scope(Sink);
    auto CP = InferenceCheckpoint::create(Prog, FocusDecl);
    if (!CP)
      return S; // Prefix itself fails; nothing to slice.
    R = CP->checkDecl(Focus);
  }
  if (R.ok())
    return S;
  if (!Sink.hasClash()) {
    // Non-unification failure (unbound, arity, record shape): fall back
    // to the span-anchored slice, whose validity rests entirely on the
    // carved-witness verification.
    anchorSlice(S, Prog, FocusDecl, R);
    return S;
  }

  // Rendered clash: prefer the checker's post-rollback rendering; the
  // sink's was taken mid-unification and may show partial bindings.
  S.Cyclic = Sink.TheClash.Cyclic;
  if (R.Error && !R.Error->ActualType.empty()) {
    S.ClashLeft = R.Error->ActualType;
    S.ClashRight = R.Error->ExpectedType;
  } else {
    S.ClashLeft = Sink.TheClash.Left;
    S.ClashRight = Sink.TheClash.Right;
  }

  Members M = closeOverClash(Sink, S.InvolvedTypes);

  // Clash span, from the node in scope when the clash fired.
  const ProvenanceTag &CT = Sink.TheClash.Seed.Tag;
  switch (CT.Kind) {
  case ProvenanceNodeKind::Expr:
    S.ClashSpan = static_cast<const Expr *>(CT.Node)->Span;
    break;
  case ProvenanceNodeKind::Pattern:
    S.ClashSpan = static_cast<const Pattern *>(CT.Node)->Span;
    break;
  case ProvenanceNodeKind::Decl:
    S.ClashSpan = static_cast<const Decl *>(CT.Node)->Span;
    break;
  case ProvenanceNodeKind::None:
    break;
  }

  // Map members to paths within the focus declaration.
  FocusWalk Walk(M);
  Walk.walk(*Focus.Rhs, NodePath(FocusDecl));
  S.DeclNodes = Walk.DeclNodes;
  S.Influence.reserve(Walk.Influence.size());
  for (auto &[Path, Span] : Walk.Influence) {
    S.Influence.push_back(Path);
    S.InfluenceSpans.push_back(Span);
  }

  // Members the focus walk never saw live in the prefix or in the focus
  // declaration's header (binding/parameter patterns).
  std::unordered_set<const void *> HeaderPatterns;
  if (Focus.Binding)
    collectPatternNodes(*Focus.Binding, HeaderPatterns);
  for (const auto &P : Focus.Params)
    collectPatternNodes(*P, HeaderPatterns);
  for (const void *E : M.Exprs)
    if (!Walk.ExprsSeen.count(E))
      S.PrefixInfluence = true;
  for (const void *P : M.Patterns) {
    if (Walk.PatternsSeen.count(P))
      continue;
    if (HeaderPatterns.count(P))
      S.DeclHeaderInfluence = true;
    else
      S.PrefixInfluence = true;
  }
  for (const void *D : M.Decls) {
    if (D == &Focus)
      S.DeclHeaderInfluence = true;
    else
      S.PrefixInfluence = true;
  }

  S.Valid = true;

  if (!S.Influence.empty())
    minimizeCore(S, Prog, FocusDecl, Opts);
  // Minimization kept nothing (a second, independent error makes every
  // wildcard still fail) or could not run (the prefix fails): the core is
  // the deepest influence nodes, still an antichain.
  if (S.Core.empty())
    keepDeepest(S, std::vector<char>(S.Influence.size(), 0));
  return S;
}

std::string ErrorSlice::render(const std::string &SourceName) const {
  std::ostringstream OS;
  if (!Valid) {
    OS << "no error slice (not a unification failure)\n";
    return OS.str();
  }
  OS << "error slice";
  if (!SourceName.empty())
    OS << " of " << SourceName;
  OS << " (declaration " << DeclIndex << ")\n";
  if (SpanAnchored)
    OS << "  anchor: non-unification failure at " << ClashSpan.str()
       << " (witness-verified)\n";
  else
    OS << "  clash: " << ClashLeft << (Cyclic ? " occurs in " : " vs ")
       << ClashRight << " at " << ClashSpan.str() << "\n";
  OS << "  core (" << Core.size() << " node" << (Core.size() == 1 ? "" : "s")
     << "):\n";
  for (size_t I = 0; I < Core.size(); ++I)
    OS << "    " << CoreSpans[I].str() << "  path " << Core[I].str() << "\n";
  if (!InvolvedTypes.empty()) {
    OS << "  involved types:";
    for (const auto &N : InvolvedTypes)
      OS << " " << N;
    OS << "\n";
  }
  OS << "  influence: " << Influence.size() << " of " << DeclNodes
     << " declaration nodes";
  if (PrefixInfluence)
    OS << ", reaches the prefix";
  if (DeclHeaderInfluence)
    OS << ", reaches the declaration header";
  OS << "\n";
  return OS.str();
}
