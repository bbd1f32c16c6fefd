//===- Enumerator.cpp - Constructive-change catalog implementation --------==//

#include "core/Enumerator.h"

#include "analysis/SliceGuide.h"
#include "minicaml/Printer.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace seminal;
using namespace seminal::caml;

namespace {

/// Clones the argument vector of an application node (children 1..n).
std::vector<ExprPtr> cloneArgs(const Expr &App) {
  std::vector<ExprPtr> Args;
  for (unsigned I = 1; I < App.numChildren(); ++I)
    Args.push_back(App.child(I)->clone());
  return Args;
}

CandidateChange change(ExprPtr Replacement, std::string Description) {
  CandidateChange C;
  C.Replacement = std::move(Replacement);
  C.Description = std::move(Description);
  return C;
}

/// Generates every permutation of [0, N) except the identity.
std::vector<std::vector<unsigned>> nonIdentityPermutations(unsigned N) {
  std::vector<unsigned> Perm(N);
  for (unsigned I = 0; I < N; ++I)
    Perm[I] = I;
  std::vector<std::vector<unsigned>> Result;
  while (std::next_permutation(Perm.begin(), Perm.end()))
    Result.push_back(Perm);
  return Result;
}

/// The argument-permutation family for application \p Node (arity
/// \p NumArgs), minus the permutations cheaper passes already tried.
std::vector<CandidateChange> emitArgPermutations(const Expr &Node,
                                                 unsigned NumArgs) {
  std::vector<CandidateChange> Perms;
  for (const auto &Perm : nonIdentityPermutations(NumArgs)) {
    // Skip adjacent swaps and the full reversal: already tried.
    bool IsAdjacentSwap = false;
    unsigned Diffs = 0;
    for (unsigned I = 0; I < NumArgs; ++I)
      if (Perm[I] != I)
        ++Diffs;
    if (Diffs == 2)
      IsAdjacentSwap = true; // any transposition of two positions
    bool IsReversal = true;
    for (unsigned I = 0; I < NumArgs; ++I)
      if (Perm[I] != NumArgs - 1 - I)
        IsReversal = false;
    if (IsAdjacentSwap || IsReversal)
      continue;
    std::vector<ExprPtr> Args;
    for (unsigned I = 0; I < NumArgs; ++I)
      Args.push_back(Node.child(Perm[I] + 1)->clone());
    Perms.push_back(change(makeApp(Node.child(0)->clone(), std::move(Args)),
                           "permute the call's arguments"));
  }
  return Perms;
}

/// The component-permutation family for tuple \p Node (arity \p N).
std::vector<CandidateChange> emitTuplePermutations(const Expr &Node,
                                                   unsigned N) {
  std::vector<CandidateChange> Perms;
  for (const auto &Perm : nonIdentityPermutations(N)) {
    std::vector<ExprPtr> Elems;
    for (unsigned I = 0; I < N; ++I)
      Elems.push_back(Node.child(Perm[I])->clone());
    Perms.push_back(change(makeTuple(std::move(Elems)),
                           "permute the tuple's components"));
  }
  return Perms;
}

/// A thunk that rebuilds \p Node's permutation family on demand for a
/// deferred follow-up; the closure owns a clone of the node.
std::function<std::vector<CandidateChange>()>
deferredFamily(const Expr &Node,
               std::vector<CandidateChange> (*Emit)(const Expr &, unsigned),
               unsigned Arity) {
  auto NodeCopy = std::shared_ptr<Expr>(Node.clone().release());
  return [NodeCopy, Emit, Arity]() { return Emit(*NodeCopy, Arity); };
}

//===----------------------------------------------------------------------===//
// Function applications (most of Figure 3)
//===----------------------------------------------------------------------===//

void appChanges(const Expr &Node, const EnumeratorOptions &Opts,
                std::vector<CandidateChange> &Out) {
  unsigned NumArgs = Node.numChildren() - 1;

  // Remove an argument from a function call.
  for (unsigned I = 0; I < NumArgs; ++I) {
    if (NumArgs == 1) {
      Out.push_back(change(Node.child(0)->clone(),
                           "remove the argument of the call"));
      continue;
    }
    std::vector<ExprPtr> Args;
    for (unsigned J = 0; J < NumArgs; ++J)
      if (J != I)
        Args.push_back(Node.child(J + 1)->clone());
    Out.push_back(change(makeApp(Node.child(0)->clone(), std::move(Args)),
                         "remove argument " + std::to_string(I + 1) +
                             " of the call"));
  }

  // Add an argument to a function call (each insertion point).
  for (unsigned P = 0; P <= NumArgs; ++P) {
    std::vector<ExprPtr> Args;
    for (unsigned J = 0; J < NumArgs; ++J) {
      if (J == P)
        Args.push_back(makeWildcard());
      Args.push_back(Node.child(J + 1)->clone());
    }
    if (P == NumArgs)
      Args.push_back(makeWildcard());
    Out.push_back(change(makeApp(Node.child(0)->clone(), std::move(Args)),
                         "add an argument to the call at position " +
                             std::to_string(P + 1)));
  }

  // Swap adjacent arguments (cheap; always tried).
  for (unsigned I = 0; I + 1 < NumArgs; ++I) {
    std::vector<ExprPtr> Args = cloneArgs(Node);
    std::swap(Args[I], Args[I + 1]);
    Out.push_back(change(makeApp(Node.child(0)->clone(), std::move(Args)),
                         "swap arguments " + std::to_string(I + 1) + " and " +
                             std::to_string(I + 2)));
  }

  // Reverse all arguments (Figure 3's "reorder"; distinct from a swap
  // only at arity >= 3).
  if (NumArgs >= 3) {
    std::vector<ExprPtr> Args = cloneArgs(Node);
    std::reverse(Args.begin(), Args.end());
    Out.push_back(change(makeApp(Node.child(0)->clone(), std::move(Args)),
                         "reverse the call's arguments"));
  }

  // Full permutations, gated behind an all-wildcards probe: if
  // `f [[...]] ... [[...]]` fails, no permutation can succeed.
  if (NumArgs >= 3 && NumArgs <= Opts.MaxPermutationArity) {
    auto EmitPerms = deferredFamily(Node, emitArgPermutations, NumArgs);

    if (Opts.GateExpensiveChanges) {
      // Slice feasibility pre-probe: when the guide proves no argument
      // subtree touches the error's influence set, the all-wildcard probe
      // is guaranteed to fail, so the probe (and the family it gates)
      // can be skipped without an oracle call. A failing probe emits
      // nothing either, so the candidate stream is unchanged.
      if (Opts.Guide && Opts.Guide->argumentsDoomed(Node)) {
        ++Opts.Guide->PrunedPermutationProbes;
      } else {
        CandidateChange Probe;
        std::vector<ExprPtr> Holes;
        for (unsigned I = 0; I < NumArgs; ++I)
          Holes.push_back(makeWildcard());
        Probe.Replacement = makeApp(Node.child(0)->clone(), std::move(Holes));
        Probe.Description = "probe: any arguments at all?";
        Probe.IsProbe = true;
        Probe.FollowUps = [EmitPerms](bool Succeeded) {
          return Succeeded ? EmitPerms() : std::vector<CandidateChange>();
        };
        Out.push_back(std::move(Probe));
      }
    } else {
      for (auto &Perm : EmitPerms())
        Out.push_back(std::move(Perm));
    }
  }

  // Put call-arguments in a tuple: f a1 a2 a3 -> f (a1, a2, a3).
  if (NumArgs >= 2) {
    std::vector<ExprPtr> Elems = cloneArgs(Node);
    std::vector<ExprPtr> One;
    One.push_back(makeTuple(std::move(Elems)));
    Out.push_back(change(makeApp(Node.child(0)->clone(), std::move(One)),
                         "pass the arguments as one tuple"));
  }

  // Curry arguments instead of tupling: f (a1, a2, a3) -> f a1 a2 a3.
  if (NumArgs == 1 && Node.child(1)->kind() == Expr::Kind::Tuple) {
    const Expr &Tup = *Node.child(1);
    std::vector<ExprPtr> Args;
    for (unsigned I = 0; I < Tup.numChildren(); ++I)
      Args.push_back(Tup.child(I)->clone());
    Out.push_back(change(makeApp(Node.child(0)->clone(), std::move(Args)),
                         "pass the tuple's components as curried arguments"));
  }

  // Reassociate to make a nested call: f a1 a2 a3 -> f (a1 a2 a3).
  if (NumArgs >= 2) {
    std::vector<ExprPtr> Args = cloneArgs(Node);
    ExprPtr Head = std::move(Args.front());
    Args.erase(Args.begin());
    std::vector<ExprPtr> One;
    One.push_back(makeApp(std::move(Head), std::move(Args)));
    Out.push_back(change(makeApp(Node.child(0)->clone(), std::move(One)),
                         "reassociate the arguments into a nested call"));
  }
}

//===----------------------------------------------------------------------===//
// Functions
//===----------------------------------------------------------------------===//

void funChanges(const Expr &Node, std::vector<CandidateChange> &Out) {
  const std::vector<PatternPtr> &Params = Node.Params;

  // Curry a tupled parameter: fun (x, y) -> e  =>  fun x y -> e.
  if (Params.size() == 1 && Params[0]->kind() == Pattern::Kind::Tuple) {
    std::vector<PatternPtr> Curried;
    for (const auto &Elem : Params[0]->Elems)
      Curried.push_back(Elem->clone());
    Out.push_back(change(makeFun(std::move(Curried), Node.child(0)->clone()),
                         "take curried arguments instead of a tuple"));
  }

  // Tuple the curried parameters: fun x y -> e  =>  fun (x, y) -> e.
  if (Params.size() >= 2) {
    std::vector<PatternPtr> Elems;
    for (const auto &Param : Params)
      Elems.push_back(Param->clone());
    std::vector<PatternPtr> One;
    One.push_back(makeTuplePattern(std::move(Elems)));
    Out.push_back(change(makeFun(std::move(One), Node.child(0)->clone()),
                         "take one tuple instead of curried arguments"));
  }

  // Add a parameter (leading and trailing wildcard).
  {
    std::vector<PatternPtr> WithTrailing;
    for (const auto &Param : Params)
      WithTrailing.push_back(Param->clone());
    WithTrailing.push_back(makeWildPattern());
    Out.push_back(change(
        makeFun(std::move(WithTrailing), Node.child(0)->clone()),
        "add a trailing parameter"));

    std::vector<PatternPtr> WithLeading;
    WithLeading.push_back(makeWildPattern());
    for (const auto &Param : Params)
      WithLeading.push_back(Param->clone());
    Out.push_back(change(
        makeFun(std::move(WithLeading), Node.child(0)->clone()),
        "add a leading parameter"));
  }

  // Remove a parameter (arity >= 2 keeps the node a function).
  if (Params.size() >= 2) {
    for (size_t I = 0; I < Params.size(); ++I) {
      std::vector<PatternPtr> Fewer;
      for (size_t J = 0; J < Params.size(); ++J)
        if (J != I)
          Fewer.push_back(Params[J]->clone());
      Out.push_back(change(makeFun(std::move(Fewer), Node.child(0)->clone()),
                           "remove parameter " + std::to_string(I + 1)));
    }
  }
}

//===----------------------------------------------------------------------===//
// let-in
//===----------------------------------------------------------------------===//

void letChanges(const Expr &Node, std::vector<CandidateChange> &Out) {
  // Toggle rec: let f x = ... -> let rec f x = ... (and back).
  {
    ExprPtr Toggled = Node.clone();
    Toggled->IsRec = !Node.IsRec;
    Out.push_back(change(std::move(Toggled),
                         Node.IsRec ? "remove 'rec' from the binding"
                                    : "make the binding recursive"));
  }

  // Curry/tuple the declared parameters, mirroring funChanges.
  if (Node.Params.size() == 1 &&
      Node.Params[0]->kind() == Pattern::Kind::Tuple) {
    ExprPtr Curried = Node.clone();
    std::vector<PatternPtr> Params;
    for (const auto &Elem : Node.Params[0]->Elems)
      Params.push_back(Elem->clone());
    Curried->Params = std::move(Params);
    Out.push_back(change(std::move(Curried),
                         "take curried arguments instead of a tuple"));
  }
  if (Node.Params.size() >= 2) {
    ExprPtr Tupled = Node.clone();
    std::vector<PatternPtr> Elems;
    for (const auto &Param : Node.Params)
      Elems.push_back(Param->clone());
    std::vector<PatternPtr> One;
    One.push_back(makeTuplePattern(std::move(Elems)));
    Tupled->Params = std::move(One);
    Out.push_back(change(std::move(Tupled),
                         "take one tuple instead of curried arguments"));
  }
}

//===----------------------------------------------------------------------===//
// Lists, tuples, cons
//===----------------------------------------------------------------------===//

void listChanges(const Expr &Node, std::vector<CandidateChange> &Out) {
  // [(e1, e2, e3)] -> [e1; e2; e3]: the comma-vs-semicolon pitfall.
  if (Node.numChildren() == 1 &&
      Node.child(0)->kind() == Expr::Kind::Tuple) {
    const Expr &Tup = *Node.child(0);
    std::vector<ExprPtr> Elems;
    for (unsigned I = 0; I < Tup.numChildren(); ++I)
      Elems.push_back(Tup.child(I)->clone());
    Out.push_back(change(makeList(std::move(Elems)),
                         "make an n-element list, not a 1-element list "
                         "of an n-tuple"));
  }
  // [e1; e2; e3] -> [(e1, e2, e3)]: the reverse confusion.
  if (Node.numChildren() >= 2) {
    std::vector<ExprPtr> Elems;
    for (unsigned I = 0; I < Node.numChildren(); ++I)
      Elems.push_back(Node.child(I)->clone());
    std::vector<ExprPtr> One;
    One.push_back(makeTuple(std::move(Elems)));
    Out.push_back(change(makeList(std::move(One)),
                         "make a 1-element list of a tuple"));
  }
}

void tupleChanges(const Expr &Node, const EnumeratorOptions &Opts,
                  std::vector<CandidateChange> &Out) {
  unsigned N = Node.numChildren();

  // Drop a component (arity >= 3 keeps it a tuple).
  if (N >= 3) {
    for (unsigned I = 0; I < N; ++I) {
      std::vector<ExprPtr> Elems;
      for (unsigned J = 0; J < N; ++J)
        if (J != I)
          Elems.push_back(Node.child(J)->clone());
      Out.push_back(change(makeTuple(std::move(Elems)),
                           "drop tuple component " + std::to_string(I + 1)));
    }
  }

  // Permute components, gated behind the paper's example probe:
  // (e1, e2, e3) -> ([[...]], [[...]], [[...]]).
  if (N >= 2 && N <= Opts.MaxPermutationArity) {
    auto EmitPerms = deferredFamily(Node, emitTuplePermutations, N);
    if (Opts.GateExpensiveChanges) {
      CandidateChange Probe;
      std::vector<ExprPtr> Holes;
      for (unsigned I = 0; I < N; ++I)
        Holes.push_back(makeWildcard());
      Probe.Replacement = makeTuple(std::move(Holes));
      Probe.Description = "probe: any tuple of this arity?";
      Probe.IsProbe = true;
      Probe.FollowUps = [EmitPerms](bool Succeeded) {
        return Succeeded ? EmitPerms() : std::vector<CandidateChange>();
      };
      Out.push_back(std::move(Probe));
    } else {
      for (auto &Perm : EmitPerms())
        Out.push_back(std::move(Perm));
    }
  }
}

//===----------------------------------------------------------------------===//
// Operators
//===----------------------------------------------------------------------===//

void binOpChanges(const Expr &Node, std::vector<CandidateChange> &Out) {
  const std::string &Op = Node.Name;
  auto Lhs = [&] { return Node.child(0)->clone(); };
  auto Rhs = [&] { return Node.child(1)->clone(); };

  if (Op == "+")
    Out.push_back(change(makeBinOp("^", Lhs(), Rhs()),
                         "use string concatenation (^) instead of +"));
  if (Op == "^")
    Out.push_back(change(makeBinOp("+", Lhs(), Rhs()),
                         "use integer addition (+) instead of ^"));
  if (Op == "=")
    Out.push_back(change(makeBinOp(":=", Lhs(), Rhs()),
                         "use assignment (:=) instead of comparison (=)"));
  if (Op == ":=") {
    // e1.fld := e2  ->  e1.fld <- e2 (reference- vs field-update); tried
    // before the comparison rewrite because a mutable field nearly always
    // means an update was intended.
    if (Node.child(0)->kind() == Expr::Kind::Field) {
      const Expr &FieldExpr = *Node.child(0);
      CandidateChange FieldUpdate =
          change(makeSetField(FieldExpr.child(0)->clone(), FieldExpr.Name,
                              Rhs()),
                 "replace reference-update with field-update");
      FieldUpdate.Priority = -1;
      Out.push_back(std::move(FieldUpdate));
    }
    Out.push_back(change(makeBinOp("=", Lhs(), Rhs()),
                         "use comparison (=) instead of assignment (:=)"));
    // x := e  ->  x := !e (forgot to dereference the source).
    Out.push_back(change(
        makeBinOp(":=", Lhs(), makeUnaryOp("!", Rhs())),
        "dereference the assigned value"));
  }
  if (Op == "@")
    Out.push_back(change(makeCons(Lhs(), Rhs()),
                         "use cons (::) instead of append (@)"));
  // Arithmetic over forgotten dereferences: r + 1 -> !r + 1.
  if (Op == "+" || Op == "-" || Op == "*" || Op == "/" || Op == "=" ||
      Op == "<" || Op == ">") {
    if (Node.child(0)->kind() == Expr::Kind::Var)
      Out.push_back(change(makeBinOp(Op, makeUnaryOp("!", Lhs()), Rhs()),
                           "dereference the left operand"));
    if (Node.child(1)->kind() == Expr::Kind::Var)
      Out.push_back(change(makeBinOp(Op, Lhs(), makeUnaryOp("!", Rhs())),
                           "dereference the right operand"));
  }
}

void consChanges(const Expr &Node, std::vector<CandidateChange> &Out) {
  // e1 :: e2 -> e1 @ e2 (consing a list onto a list of the same type).
  Out.push_back(change(
      makeBinOp("@", Node.child(0)->clone(), Node.child(1)->clone()),
      "use append (@) instead of cons (::)"));
  // e1 :: e2 -> e1 :: [e2] (the tail was an element, not a list).
  {
    std::vector<ExprPtr> One;
    One.push_back(Node.child(1)->clone());
    Out.push_back(change(
        makeCons(Node.child(0)->clone(), makeList(std::move(One))),
        "wrap the tail in a list"));
  }
}

//===----------------------------------------------------------------------===//
// Conditionals, constructors, match
//===----------------------------------------------------------------------===//

void ifChanges(const Expr &Node, std::vector<CandidateChange> &Out) {
  if (Node.numChildren() == 2) {
    // if c then e  ->  if c then e else [[...]]: lifts the unit constraint.
    Out.push_back(change(makeIf(Node.child(0)->clone(),
                                Node.child(1)->clone(), makeWildcard()),
                         "add an else branch"));
  }
}

void constrChanges(const Expr &Node, std::vector<CandidateChange> &Out) {
  if (Node.Children.empty()) {
    // C -> C [[...]]: the constructor wanted an argument.
    Out.push_back(change(makeConstr(Node.Name, makeWildcard()),
                         "apply the constructor to an argument"));
    return;
  }
  const Expr &Arg = *Node.child(0);
  // C e -> C: the constructor is nullary.
  Out.push_back(change(makeConstr(Node.Name, nullptr),
                       "drop the constructor's argument"));
  if (Arg.kind() == Expr::Kind::Tuple) {
    // C (a, b, c) -> C (a, b): arity confusion inside the payload.
    for (unsigned I = 0; I < Arg.numChildren() && Arg.numChildren() > 2;
         ++I) {
      std::vector<ExprPtr> Elems;
      for (unsigned J = 0; J < Arg.numChildren(); ++J)
        if (J != I)
          Elems.push_back(Arg.child(J)->clone());
      Out.push_back(change(
          makeConstr(Node.Name, makeTuple(std::move(Elems))),
          "drop payload component " + std::to_string(I + 1)));
    }
  } else {
    // C e -> C (e, [[...]]): the payload wanted more components.
    std::vector<ExprPtr> Elems;
    Elems.push_back(Arg.clone());
    Elems.push_back(makeWildcard());
    Out.push_back(change(makeConstr(Node.Name, makeTuple(std::move(Elems))),
                         "add a payload component"));
  }
}

void setFieldChanges(const Expr &Node, std::vector<CandidateChange> &Out) {
  // e.f <- v  ->  e.f := v (the field holds a ref).
  Out.push_back(change(
      makeBinOp(":=",
                makeFieldAccess(Node.child(0)->clone(), Node.Name),
                Node.child(1)->clone()),
      "replace field-update with reference-update"));
}

/// Reparenthesizing nested matches: when an arm's body is itself a match,
/// the inner match may have swallowed the outer match's remaining arms
/// (the parser binds trailing arms to the innermost match). For every
/// split point, move the inner match's trailing arms back out. This is
/// deliberately the catalog's most expensive family -- the paper reports
/// it as the single performance bug dominating slow runs (Section 3.2) --
/// and EnumeratorOptions::EnableMatchReparen turns it off to reproduce
/// Figure 7's middle curve.
void matchReparenChanges(const Expr &Node,
                         std::vector<CandidateChange> &Out) {
  unsigned NumArms = Node.numChildren() - 1;
  for (unsigned ArmIdx = 0; ArmIdx < NumArms; ++ArmIdx) {
    const Expr *Body = Node.child(ArmIdx + 1);
    if (Body->kind() != Expr::Kind::Match)
      continue;
    unsigned InnerArms = Body->numChildren() - 1;
    // Move the trailing K arms of the inner match to the outer one.
    for (unsigned K = 1; K < InnerArms; ++K) {
      std::vector<MatchArm> NewInner;
      for (unsigned I = 0; I < InnerArms - K; ++I)
        NewInner.push_back(MatchArm{Body->ArmPats[I]->clone(),
                                    Body->child(I + 1)->clone()});
      std::vector<MatchArm> Outer;
      for (unsigned I = 0; I < NumArms; ++I) {
        if (I == ArmIdx) {
          Outer.push_back(MatchArm{
              Node.ArmPats[I]->clone(),
              makeMatch(Body->child(0)->clone(), std::move(NewInner))});
          // The displaced arms follow the splice point.
          for (unsigned J = InnerArms - K; J < InnerArms; ++J)
            Outer.push_back(MatchArm{Body->ArmPats[J]->clone(),
                                     Body->child(J + 1)->clone()});
          continue;
        }
        Outer.push_back(
            MatchArm{Node.ArmPats[I]->clone(), Node.child(I + 1)->clone()});
      }
      Out.push_back(change(
          makeMatch(Node.child(0)->clone(), std::move(Outer)),
          "reparenthesize the nested match (move " + std::to_string(K) +
              " arm(s) to the outer match)"));
    }
    // The reverse direction: the outer match's trailing arms may belong
    // to the inner one. Together with the splits above this is what
    // makes the family quadratic in the number of arms -- faithfully
    // reproducing the "single performance bug in a single constructive
    // change" of Section 3.2.
    for (unsigned K = 1; ArmIdx + K < NumArms; ++K) {
      std::vector<MatchArm> NewInner;
      for (unsigned I = 0; I < InnerArms; ++I)
        NewInner.push_back(MatchArm{Body->ArmPats[I]->clone(),
                                    Body->child(I + 1)->clone()});
      for (unsigned I = ArmIdx + 1; I <= ArmIdx + K; ++I)
        NewInner.push_back(
            MatchArm{Node.ArmPats[I]->clone(), Node.child(I + 1)->clone()});
      std::vector<MatchArm> Outer;
      for (unsigned I = 0; I < NumArms; ++I) {
        if (I > ArmIdx && I <= ArmIdx + K)
          continue; // absorbed
        if (I == ArmIdx) {
          Outer.push_back(MatchArm{
              Node.ArmPats[I]->clone(),
              makeMatch(Body->child(0)->clone(), std::move(NewInner))});
          continue;
        }
        Outer.push_back(
            MatchArm{Node.ArmPats[I]->clone(), Node.child(I + 1)->clone()});
      }
      Out.push_back(change(
          makeMatch(Node.child(0)->clone(), std::move(Outer)),
          "reparenthesize the nested match (absorb " + std::to_string(K) +
              " outer arm(s) into the inner match)"));
    }
  }
}

} // namespace

std::vector<CandidateChange>
seminal::enumerateChanges(const Expr &Node, const EnumeratorOptions &Opts) {
  std::vector<CandidateChange> Out;
  switch (Node.kind()) {
  case Expr::Kind::App:
    appChanges(Node, Opts, Out);
    break;
  case Expr::Kind::Fun:
    funChanges(Node, Out);
    break;
  case Expr::Kind::Let:
    letChanges(Node, Out);
    break;
  case Expr::Kind::List:
    listChanges(Node, Out);
    break;
  case Expr::Kind::Tuple:
    tupleChanges(Node, Opts, Out);
    break;
  case Expr::Kind::BinOp:
    binOpChanges(Node, Out);
    break;
  case Expr::Kind::Cons:
    consChanges(Node, Out);
    break;
  case Expr::Kind::If:
    ifChanges(Node, Out);
    break;
  case Expr::Kind::Constr:
    constrChanges(Node, Out);
    break;
  case Expr::Kind::SetField:
    setFieldChanges(Node, Out);
    break;
  case Expr::Kind::Match:
    if (Opts.EnableMatchReparen)
      matchReparenChanges(Node, Out);
    break;
  default:
    break;
  }
  if (Opts.Extra)
    Opts.Extra->generate(Node, Out);
  return Out;
}

std::vector<DeclChange> seminal::enumerateDeclChanges(const Decl &D) {
  std::vector<DeclChange> Out;
  if (D.kind() != Decl::Kind::Let)
    return Out;

  {
    std::shared_ptr<Decl> Toggled = D.clone();
    Toggled->IsRec = !D.IsRec;
    Out.push_back(DeclChange{std::move(Toggled),
                             D.IsRec ? "remove 'rec' from the binding"
                                     : "make the function recursive"});
  }
  if (D.Params.size() == 1 && D.Params[0]->kind() == Pattern::Kind::Tuple) {
    std::shared_ptr<Decl> Curried = D.clone();
    std::vector<PatternPtr> Params;
    for (const auto &Elem : D.Params[0]->Elems)
      Params.push_back(Elem->clone());
    Curried->Params = std::move(Params);
    Out.push_back(DeclChange{std::move(Curried),
                             "take curried arguments instead of a tuple"});
  }
  if (D.Params.size() >= 2) {
    std::shared_ptr<Decl> Tupled = D.clone();
    std::vector<PatternPtr> Elems;
    for (const auto &Param : D.Params)
      Elems.push_back(Param->clone());
    std::vector<PatternPtr> One;
    One.push_back(makeTuplePattern(std::move(Elems)));
    Tupled->Params = std::move(One);
    Out.push_back(DeclChange{std::move(Tupled),
                             "take one tuple instead of curried arguments"});
  }
  return Out;
}
