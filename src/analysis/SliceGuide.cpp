//===- SliceGuide.cpp - Slice-driven search pruning ------------------------==//

#include "analysis/SliceGuide.h"

using namespace seminal;
using namespace seminal::analysis;
using namespace seminal::caml;

namespace {

void collectSubtree(const Expr &Root,
                    std::unordered_set<const Expr *> &Out) {
  Out.insert(&Root);
  for (unsigned I = 0; I < Root.numChildren(); ++I)
    collectSubtree(*Root.child(I), Out);
}

/// Node equality minus the child subtrees: kind, scalar payloads, and
/// every pattern (patterns bind names and carry constraints, so they are
/// part of the head). Equal heads guarantee equal child counts.
bool headEquals(const Expr &A, const Expr &B) {
  if (A.kind() != B.kind())
    return false;
  if (A.IntValue != B.IntValue || A.BoolValue != B.BoolValue ||
      A.StringValue != B.StringValue || A.Name != B.Name ||
      A.IsRec != B.IsRec || A.FieldNames != B.FieldNames)
    return false;
  if ((A.Binding == nullptr) != (B.Binding == nullptr))
    return false;
  if (A.Binding && !A.Binding->equals(*B.Binding))
    return false;
  if (A.Params.size() != B.Params.size() ||
      A.numChildren() != B.numChildren() ||
      A.ArmPats.size() != B.ArmPats.size())
    return false;
  for (size_t I = 0; I < A.Params.size(); ++I)
    if (!A.Params[I]->equals(*B.Params[I]))
      return false;
  for (size_t I = 0; I < A.ArmPats.size(); ++I)
    if (!A.ArmPats[I]->equals(*B.ArmPats[I]))
      return false;
  return true;
}

} // namespace

SliceGuide::SliceGuide(const Program &Prog, const ErrorSlice &Slice) {
  for (const NodePath &P : Slice.Influence)
    if (const Expr *E = resolvePath(Prog, P))
      InfluenceExprs.insert(E);
  for (const NodePath &P : Slice.Core) {
    const Expr *E = resolvePath(Prog, P);
    if (!E)
      continue;
    CoreExprs.insert(E);
    collectSubtree(*E, CoreClosureExprs);
    // Ancestors: resolve every proper prefix of the core path.
    NodePath Prefix(P.DeclIndex);
    for (size_t I = 0; I < P.Steps.size(); ++I) {
      if (const Expr *A = resolvePath(Prog, Prefix))
        CoreClosureExprs.insert(A);
      Prefix = Prefix.descend(P.Steps[I]);
    }
  }
  ComponentEscapes = Slice.PrefixInfluence || Slice.DeclHeaderInfluence;
  WitnessOk = Slice.CoreWitnessOk && !CoreExprs.empty();
}

size_t SliceGuide::influenceInside(const Expr &Root) const {
  size_t N = InfluenceExprs.count(&Root);
  for (unsigned I = 0; I < Root.numChildren(); ++I)
    N += influenceInside(*Root.child(I));
  return N;
}

// Every query degrades to "not doomed" when the influence set is empty:
// an attribution gap must disable pruning, never widen it.

bool SliceGuide::subtreeDoomed(const Expr &Root) const {
  if (InfluenceExprs.empty())
    return false;
  if (influenceInside(Root) == 0)
    return true;
  // Witness rule: Root outside the core closure means its subtree is
  // disjoint from every core subtree, so the removal probe at Root keeps
  // all of the verified witness's constraints -- and the witness fails.
  return WitnessOk && CoreClosureExprs.count(&Root) == 0;
}

bool SliceGuide::adaptationDoomed(const Expr &Root) const {
  if (ComponentEscapes || InfluenceExprs.empty())
    return false;
  return influenceInside(Root) == InfluenceExprs.size();
}

bool SliceGuide::diffConfined(const Expr &Orig, const Expr &Repl) const {
  if (headEquals(Orig, Repl)) {
    for (unsigned I = 0; I < Orig.numChildren(); ++I)
      if (!diffConfined(*Orig.child(I), *Repl.child(I)))
        return false;
    return true;
  }
  // Maximal differing position: the whole original subtree here is being
  // rewritten. Safe exactly when it is disjoint from every core subtree
  // (outside the closure, so the witness's kept material is untouched).
  return CoreClosureExprs.count(&Orig) == 0;
}

bool SliceGuide::candidateDoomed(const Expr &Orig, const Expr &Repl) const {
  if (!WitnessOk || InfluenceExprs.empty())
    return false;
  return diffConfined(Orig, Repl);
}

bool SliceGuide::diffConfinedIds(const Expr &Orig, AstArena::ExprId OrigId,
                                 const Expr &Repl, AstArena::ExprId ReplId,
                                 const AstArena &Arena) const {
  // Identical interned subtrees: diffConfined would find equal heads all
  // the way down and return true; one integer comparison settles it.
  if (OrigId == ReplId)
    return true;
  if (headEquals(Orig, Repl)) {
    // Equal heads with different ids: some child differs; recurse with
    // the interned children so shared subtrees short-circuit again.
    const std::vector<AstArena::ExprId> &OC = Arena.exprChildren(OrigId);
    const std::vector<AstArena::ExprId> &RC = Arena.exprChildren(ReplId);
    for (unsigned I = 0; I < Orig.numChildren(); ++I)
      if (!diffConfinedIds(*Orig.child(I), OC[I], *Repl.child(I), RC[I],
                           Arena))
        return false;
    return true;
  }
  return CoreClosureExprs.count(&Orig) == 0;
}

bool SliceGuide::candidateDoomed(const Expr &Orig, AstArena::ExprId OrigId,
                                 const Expr &Repl, AstArena::ExprId ReplId,
                                 const AstArena &Arena) const {
  if (!WitnessOk || InfluenceExprs.empty())
    return false;
  return diffConfinedIds(Orig, OrigId, Repl, ReplId, Arena);
}

bool SliceGuide::argumentsDoomed(const Expr &App) const {
  if (InfluenceExprs.empty())
    return false;
  // App layout: [callee, a1, ..., an]; only the arguments are wildcarded
  // by the permutation probe, so only they need to be influence-free --
  // or, under the verified witness, merely outside the core closure
  // (wildcarding them keeps every witness constraint intact).
  for (unsigned I = 1; I < App.numChildren(); ++I) {
    const Expr &Arg = *App.child(I);
    if (influenceInside(Arg) == 0)
      continue;
    if (WitnessOk && CoreClosureExprs.count(&Arg) == 0)
      continue;
    return false;
  }
  return true;
}
