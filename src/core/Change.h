//===- Change.h - Candidate changes and suggestions -------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The currency of the search procedure. A CandidateChange is one edit the
/// enumerator proposes for a node, optionally with lazily-computed
/// follow-ups ("More Efficient Search", Section 2.2): a cheap probe whose
/// outcome gates a family of expensive variants, so argument permutations
/// are only attempted when any permutation could possibly succeed. A
/// Suggestion is a change that the oracle confirmed, packaged with
/// everything the ranker and the message renderer need.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_CHANGE_H
#define SEMINAL_CORE_CHANGE_H

#include "minicaml/Ast.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace seminal {

/// Classification of a successful change, in the ranker's preference
/// order: Constructive > Adaptation > Removal (Sections 2.1-2.3);
/// pattern fixes arise only inside triage phases (Section 2.4).
enum class ChangeKind {
  Constructive,
  Adaptation,
  Removal,
  PatternFix,
};

/// Stable lowercase name for a change kind ("constructive", ...), used
/// by telemetry records and the run report.
inline const char *changeKindName(ChangeKind K) {
  switch (K) {
  case ChangeKind::Constructive:
    return "constructive";
  case ChangeKind::Adaptation:
    return "adaptation";
  case ChangeKind::Removal:
    return "removal";
  case ChangeKind::PatternFix:
    return "pattern-fix";
  }
  return "unknown";
}

/// One candidate edit produced by the enumerator.
struct CandidateChange {
  /// The replacement subtree (already built; the searcher installs it at
  /// the node being examined).
  caml::ExprPtr Replacement;

  /// Human-readable description of the edit, used in messages and tests
  /// (e.g. "curry the tupled parameter").
  std::string Description;

  /// When true this change is only a feasibility probe: its success or
  /// failure steers follow-ups but it is never reported as a suggestion.
  bool IsProbe = false;

  /// Rank nudge among same-site constructive changes: negative values
  /// mark idiom-specific fixes (e.g. `:=` to `<-` on a record field)
  /// that should beat generic rewrites when both type-check. "Special
  /// cases are encouraged rather than discouraged" (Section 2.2).
  int Priority = 0;

  /// Lazily-computed follow-up changes; invoked with whether this change
  /// type-checked. Laziness avoids building syntax for variants that are
  /// gated off (Section 2.2).
  std::function<std::vector<CandidateChange>(bool Succeeded)> FollowUps;
};

/// A change the oracle accepted, ready for ranking and rendering.
struct Suggestion {
  ChangeKind Kind = ChangeKind::Removal;
  bool ViaTriage = false;
  /// Number of sibling subtrees that had to be wildcarded (triage only);
  /// the ranker prefers fewer (Section 2.4).
  int TriageRemovals = 0;

  /// Where the change applies.
  caml::NodePath Path;
  /// What was there (clone of the original subtree).
  caml::ExprPtr Original;
  /// What to put there (clone of the replacement).
  caml::ExprPtr Replacement;

  std::string Description;
  unsigned OriginalSize = 0;
  unsigned ReplacementSize = 0;
  int Priority = 0; ///< CandidateChange::Priority of the applied change.

  /// Rendered type of the replacement in context, when available.
  std::optional<std::string> ReplacementType;

  /// Rendered enclosing declaration with the replacement installed (the
  /// "within context ..." part of the message). For triaged suggestions
  /// the context shows the sibling wildcards.
  std::string ContextAfter;

  /// For pattern fixes: the rendered original/replacement pattern.
  std::string PatternBefore;
  std::string PatternAfter;

  /// Set when the node is a variable whose removal succeeds but whose
  /// adaptation fails: the tell-tale of an unbound/misspelled identifier
  /// (Section 3.3's `print` vs `print_string` example).
  bool LikelyUnboundVariable = false;

  /// Set when the changed node is in the error slice's minimized core
  /// (only when a slice was computed); the ranker prefers such
  /// suggestions on otherwise-equal scores.
  bool InSlice = false;

  Suggestion() = default;
  Suggestion(Suggestion &&) = default;
  Suggestion &operator=(Suggestion &&) = default;
};

} // namespace seminal

#endif // SEMINAL_CORE_CHANGE_H
