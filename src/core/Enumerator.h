//===- Enumerator.h - Constructive-change catalog ---------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The enumerator of Section 2.2: "essentially a giant case expression
/// that matches on the sort of node it is given and produces a list of
/// modifications". Adding a new constructive change means adding a few
/// lines here; the searcher never changes. The catalog implements every
/// row of the paper's Figure 3 plus the idiosyncratic Caml special cases
/// the paper describes (`:=` vs `<-`, `[e1, e2, e3]`, missing `rec`, ...).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_ENUMERATOR_H
#define SEMINAL_CORE_ENUMERATOR_H

#include "core/Change.h"
#include "core/ChangeRegistry.h"
#include "minicaml/Ast.h"

#include <vector>

namespace seminal {

/// Tuning knobs for the catalog.
struct EnumeratorOptions {
  /// Optional user-supplied change generators (the Section 6 "open
  /// framework"); run after the built-in catalog at every node. Not
  /// owned; must outlive the search.
  const ChangeRegistry *Extra = nullptr;

  /// Gate expensive change families (argument permutations) behind cheap
  /// all-wildcard probes (Section 2.2 "More Efficient Search"). Disabling
  /// this reproduces the exhaustive baseline for bench_oracle_calls.
  bool GateExpensiveChanges = true;

  /// Enable the nested-match reparenthesizing change -- the change the
  /// paper identifies as its one performance bug (Section 3.2, Figure 7's
  /// middle curve disables it).
  bool EnableMatchReparen = true;

  /// Maximum call arity for which full argument permutations are tried.
  unsigned MaxPermutationArity = 4;
};

/// Produces the constructive changes to try at \p Node.
/// The node is examined read-only; every returned replacement is a fresh
/// tree. Probes and lazy follow-ups encode the gating structure.
std::vector<CandidateChange> enumerateChanges(const caml::Expr &Node,
                                              const EnumeratorOptions &Opts);

/// Constructive changes for a whole top-level declaration (toggling
/// `rec`, currying/tupling the declared parameters). Returns modified
/// declaration clones with descriptions.
struct DeclChange {
  caml::DeclPtr Replacement;
  std::string Description;
};
std::vector<DeclChange> enumerateDeclChanges(const caml::Decl &D);

} // namespace seminal

#endif // SEMINAL_CORE_ENUMERATOR_H
