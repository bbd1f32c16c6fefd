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
/// place and undone after each oracle call. A suggestion shares the
/// input's other declarations and snapshots the edited one.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_SEARCHER_H
#define SEMINAL_CORE_SEARCHER_H

#include "analysis/Slice.h"
#include "analysis/SliceGuide.h"
#include "core/Change.h"
#include "core/Enumerator.h"
#include "core/Oracle.h"
#include "minicaml/Ast.h"
#include "obs/Telemetry.h"

#include <memory>
#include <optional>
#include <vector>

namespace seminal {

/// Order in which triage greedily wildcards the focused node's siblings
/// (Section 2.4 -- the paper's example removes rightmost-first and notes
/// "the details of the algorithm ... are less important"; the ablation
/// bench exercises both).
enum class TriageOrder {
  RightToLeft, ///< The paper's order.
  LeftToRight,
};

/// Tuning for one search run.
struct SearchOptions {
  /// Enable triage for multiple independent errors (Section 2.4).
  bool EnableTriage = true;

  /// Sibling-removal order used inside triage.
  TriageOrder Order = TriageOrder::RightToLeft;

  /// A node must have at least this many AST nodes before a removal-only
  /// result triggers triage ("a nontrivial number of descendents").
  unsigned TriageMinSize = 6;

  /// Hard budget on oracle calls; the search stops gracefully when
  /// exhausted (never triggered by realistic student files, but keeps the
  /// tool total). The budget currency is logical calls, so acceleration
  /// changes how fast the budget is burned in wall-clock terms, never how
  /// much search it buys.
  size_t MaxOracleCalls = 200000;

  /// Oracle acceleration toggles (forwarded to the oracle by runSeminal;
  /// a Searcher driven with a hand-built oracle ignores them).
  OracleAccelOptions Accel;

  EnumeratorOptions Enum;

  /// Compute the provenance error slice before searching: suggestions in
  /// the slice's minimized core are stamped (Suggestion::InSlice) and the
  /// ranker boosts them; the SearchOutput carries the slice for display.
  /// No pruning: the exact same oracle calls are made.
  bool ComputeSlice = false;

  /// Additionally use the slice to statically skip oracle calls whose
  /// verdict the slice already proves negative (subtree removals,
  /// adaptations, and permutation probes disjoint from the influence
  /// set). Implies ComputeSlice. The suggestion list is bit-identical to
  /// a ComputeSlice-only run -- only fewer logical calls are spent
  /// (asserted corpus-wide by bench_slice_ablation and FuzzTest).
  bool SliceGuided = false;

  /// Tuning forwarded to analysis::computeErrorSlice.
  analysis::SliceOptions Slice;

  /// Observability sinks (not owned; any may be null). runSeminal
  /// forwards Trace/Metric to the oracle too; a hand-driven Searcher
  /// instruments only its own phases. Telemetry receives one
  /// CandidateOutcome per edit put to the oracle (obs/Telemetry.h) and
  /// is observational only, like the other two.
  TraceSink *Trace = nullptr;
  Metrics *Metric = nullptr;
  obs::TelemetrySink *Telemetry = nullptr;
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

  /// The error slice, when SearchOptions::ComputeSlice/SliceGuided asked
  /// for one and the failure was sliceable (a unification clash in a
  /// let declaration with a body).
  std::optional<analysis::ErrorSlice> Slice;

  /// Oracle calls statically skipped by slice guidance, by probe kind
  /// (all zero unless SliceGuided).
  size_t SlicePrunedSubtrees = 0;
  size_t SlicePrunedAdaptations = 0;
  size_t SlicePrunedPermutationProbes = 0;
  /// Constructive candidates whose replacement only rewrote core-disjoint
  /// subtrees (verdict proven negative by the carved witness).
  size_t SlicePrunedCandidates = 0;
  /// Prefix-growth localization probes skipped because one internal
  /// inference pinned the failing declaration (SliceGuided only).
  size_t SlicePrunedLocalizations = 0;

  size_t slicePrunedCalls() const {
    return SlicePrunedSubtrees + SlicePrunedAdaptations +
           SlicePrunedPermutationProbes + SlicePrunedCandidates +
           SlicePrunedLocalizations;
  }
};

/// Runs the search procedure against \p TheOracle.
class Searcher {
public:
  /// \p Arena, when non-null, is the hash-consing arena shared with the
  /// accelerated oracle; slice-guided search diffs candidates against the
  /// examined node by interned id instead of walking both trees. Search
  /// behavior and suggestion lists are bit-identical either way.
  Searcher(Oracle &TheOracle, const SearchOptions &Opts,
           std::shared_ptr<caml::AstArena> Arena = nullptr)
      : TheOracle(TheOracle), Opts(Opts), Arena(std::move(Arena)) {}

  SearchOutput run(const caml::Program &Input);

private:
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

  /// Emits one outcome record to Opts.Telemetry (no-op when null).
  void note(const char *Layer, const char *Kind,
            const std::string &Description, const std::string &Path,
            bool Verdict, bool Probe, bool Pruned = false);

  // Suggestion construction -------------------------------------------------
  void addSuggestion(ChangeKind Kind, const caml::NodePath &Path,
                     caml::ExprPtr Replacement,
                     const std::string &Description,
                     bool LikelyUnbound = false, int Priority = 0);

  /// Captures Work for a Suggestion: the shared prefix plus a snapshot
  /// of the edited focus declaration.
  caml::Program captureModified() const;

  Oracle &TheOracle;
  SearchOptions Opts;
  std::shared_ptr<caml::AstArena> Arena;

  /// The input's declarations through FocusDecl. The prefix is shared
  /// with the input; Work.Decls[FocusDecl] is Focus.
  caml::Program Work;
  unsigned FocusDecl = 0;            ///< Declaration under scrutiny.
  std::shared_ptr<caml::Decl> Focus; ///< Private clone, edited in place.
  bool OutOfBudget = false;

  /// Computes the slice of Work's focus declaration and (in guided mode)
  /// builds the pruning guide. Resets both on every run.
  void prepareSlice();

  /// True when slice guidance applies at the current search position:
  /// guided mode, outside triage (triage rewrites sibling context, which
  /// invalidates the slice's premises), and a guide is installed.
  bool guideActive() const {
    return Guide && Opts.SliceGuided && TriageDepth == 0;
  }

  std::optional<analysis::ErrorSlice> SliceResult;
  std::unique_ptr<analysis::SliceGuide> Guide;

  // Triage bookkeeping: >0 while searching inside a triage context.
  int TriageDepth = 0;
  int TriageRemovalCount = 0;

  std::vector<Suggestion> Suggestions;
};

} // namespace seminal

#endif // SEMINAL_CORE_SEARCHER_H
