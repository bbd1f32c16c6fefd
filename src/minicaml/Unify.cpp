//===- Unify.cpp - Unification implementation -----------------------------==//

#include "minicaml/Unify.h"

#include "analysis/Provenance.h"

using namespace seminal;
using namespace seminal::caml;

static UnifyResult unifyRec(Type *A, Type *B) {
  A = prune(A);
  B = prune(B);
  if (A == B)
    return UnifyResult::success();

  if (A->isVar()) {
    if (occursAndAdjust(A, B)) {
      analysis::hookClash(A, B, /*Cyclic=*/true);
      return UnifyResult::cyclic(A, B);
    }
    if (TypeTrail *Trail = activeTypeTrail())
      Trail->recordLink(A, A->Link);
    analysis::hookBinding(A, B);
    A->Link = B;
    return UnifyResult::success();
  }
  if (B->isVar())
    return unifyRec(B, A);

  // Both constructors. Names are interned, so equal names are one pointer.
  if (A->Name != B->Name || A->NumArgs != B->NumArgs) {
    analysis::hookClash(A, B, /*Cyclic=*/false);
    return UnifyResult::clash(A, B);
  }
  for (uint32_t I = 0; I < A->NumArgs; ++I) {
    UnifyResult Result = unifyRec(A->arg(I), B->arg(I));
    if (!Result.Ok)
      return Result;
  }
  return UnifyResult::success();
}

UnifyResult caml::unify(Type *A, Type *B) {
  UnifyResult Result = unifyRec(A, B);
  // The clash hook fires deep in the recursion, after prune() has resolved
  // past variable links; fold the original operands into the clash seed so
  // the slicer's variable-connectivity closure can reach the bindings that
  // produced the clashing constructors.
  if (!Result.Ok)
    analysis::hookClashContext(A, B);
  return Result;
}
