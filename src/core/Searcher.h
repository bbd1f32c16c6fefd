//===- Searcher.h - Top-down search for type-error messages -----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search procedure of Section 2. Given an ill-typed program it:
///
///   1. Localizes the error to the first failing top-level declaration by
///      type-checking increasingly long prefixes (Section 2.1).
///   2. Descends top-down through that declaration's initializer. At each
///      node whose replacement by the wildcard `[[...]]` makes the prefix
///      type-check, it tries adaptation (Section 2.3) and the enumerator's
///      constructive changes (Section 2.2), then recurses into children.
///      Nodes none of whose children can be fixed are minimal removal
///      sites.
///   3. When a large node's only fix is its own removal -- the signature of
///      multiple independent errors -- it enters triage mode (Section 2.4):
///      focus on one child while greedily wildcarding siblings, with
///      dedicated phases for binding constructs (match: scrutinee, then
///      patterns, then bodies).
///
/// The working program shares the input's declarations except the one
/// under scrutiny, which is a private clone: edits are applied to it in
/// place and undone after each oracle call. A suggestion records the
/// edit (path, original and replacement subtrees) and the rendered
/// declaration with the edit installed, not the edited program.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_SEARCHER_H
#define SEMINAL_CORE_SEARCHER_H

#include "analysis/Slice.h"
#include "core/Change.h"
#include "core/Enumerator.h"
#include "core/Oracle.h"
#include "minicaml/Ast.h"

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

namespace seminal {

/// Tuning for one search run.
struct SearchOptions {
  /// Enable triage for multiple independent errors (Section 2.4).
  bool EnableTriage = true;

  /// A node must have at least this many AST nodes before a removal-only
  /// result triggers triage ("a nontrivial number of descendents").
  unsigned TriageMinSize = 6;

  /// Hard budget on oracle calls; the search stops gracefully when
  /// exhausted (never triggered by realistic student files, but keeps the
  /// tool total). The budget currency is logical calls, so acceleration
  /// changes how fast the budget is burned in wall-clock terms, never how
  /// much search it buys.
  size_t MaxOracleCalls = 200000;

  /// Ignored; perfbench still reads it (ROADMAP item 7).
  OracleAccelOptions Accel;

  EnumeratorOptions Enum;

  /// Compute the provenance error slice before searching: suggestions in
  /// the slice's minimized core are stamped (Suggestion::InSlice) and the
  /// ranker boosts them; the SearchOutput carries the slice for display.
  /// The slice never changes which oracle calls are made.
  bool ComputeSlice = false;

  /// Tuning forwarded to analysis::computeErrorSlice.
  analysis::SliceOptions Slice;

  /// Trace sink (not owned; may be null). runSeminal forwards it to the
  /// oracle too; a hand-driven Searcher traces only its own phases.
  TraceSink *Trace = nullptr;
  Metrics *Metric = nullptr; ///< Ignored; perfbench sets it (ROADMAP item 5).
};

/// Everything a search run produces.
struct SearchOutput {
  /// True when the input already type-checks (search is bypassed).
  bool InputTypechecks = false;

  /// Index of the first top-level declaration whose prefix fails.
  std::optional<unsigned> FailingDecl;

  /// Unranked suggestions (the ranker orders them).
  std::vector<Suggestion> Suggestions;

  /// True if the oracle-call budget was exhausted mid-search.
  bool BudgetExhausted = false;

  /// The error slice, when SearchOptions::ComputeSlice asked for one and
  /// the failure was sliceable (a let declaration with a body whose
  /// failure is a unification clash or anchors on a witness-verified
  /// span).
  std::optional<analysis::ErrorSlice> Slice;
};

/// Runs the search procedure against \p TheOracle.
class Searcher {
public:
  /// Ignores its third parameter, which perfbench passes (ROADMAP item 5).
  Searcher(Oracle &TheOracle, const SearchOptions &Opts,
           std::shared_ptr<caml::AstArena> = nullptr)
      : TheOracle(TheOracle), Opts(Opts) {}

  SearchOutput run(const caml::Program &Input);

private:
  /// Whether the budget allows one more oracle call; the first refusal
  /// marks the search out of budget. Every call after the opening
  /// whole-program check asks this first, so MaxOracleCalls is a hard
  /// cap on logical calls.
  bool budgetAllowsCall();

  // One oracle query against the working program, honoring the budget.
  bool oracleSays();

  /// Installs \p Replacement at \p Path, asks the oracle, and restores.
  /// \p Replacement is handed back (moved out and in).
  bool testWith(const caml::NodePath &Path, caml::ExprPtr &Replacement);

  /// Regular-mode search rooted at \p Path. \returns true if any
  /// suggestion was found within this subtree.
  bool searchExpr(const caml::NodePath &Path);

  /// Runs the enumerator's candidates (with probes and lazy follow-ups)
  /// at \p Path. \returns true if any non-probe candidate succeeded.
  bool tryCandidates(const caml::NodePath &Path,
                     std::vector<CandidateChange> Cands);

  /// Declaration-level changes (toggle rec, curry/tuple params).
  bool tryDeclChanges(unsigned DeclIndex);

  // Triage (Section 2.4) --------------------------------------------------
  bool triage(const caml::NodePath &Path);
  bool triageGeneric(const caml::NodePath &Path);
  bool triageMatch(const caml::NodePath &Path);
  bool triageMatchPatterns(const caml::NodePath &Path);

  /// Minimal subpattern whose replacement by `_` fixes arm \p ArmIndex of
  /// the (bodies-wildcarded) match at \p MatchPath.
  bool searchPatternFix(const caml::NodePath &MatchPath, unsigned ArmIndex);

  // Suggestion construction -------------------------------------------------
  void addSuggestion(ChangeKind Kind, const caml::NodePath &Path,
                     caml::ExprPtr Replacement,
                     const std::string &Description,
                     bool LikelyUnbound = false, int Priority = 0);

  Oracle &TheOracle;
  SearchOptions Opts;

  /// The input's declarations through FocusDecl. The prefix is shared
  /// with the input; Work.Decls[FocusDecl] is Focus.
  caml::Program Work;
  unsigned FocusDecl = 0;            ///< Declaration under scrutiny.
  std::shared_ptr<caml::Decl> Focus; ///< Private clone, edited in place.
  bool OutOfBudget = false;

  /// Computes the slice of Work's focus declaration and resolves its
  /// core to Focus's nodes. Resets both on every run.
  void prepareSlice();

  std::optional<analysis::ErrorSlice> SliceResult;
  /// The slice core's nodes in Focus, resolved once from its paths. A
  /// suggestion is in the slice when its examined node is one of these
  /// objects: triage can install a clone at a core path (match phase 1
  /// does), and that clone is not in the core.
  std::unordered_set<const caml::Expr *> CoreNodes;

  // Triage bookkeeping: >0 while searching inside a triage context.
  int TriageDepth = 0;
  int TriageRemovalCount = 0;

  std::vector<Suggestion> Suggestions;
};

} // namespace seminal

#endif // SEMINAL_CORE_SEARCHER_H
