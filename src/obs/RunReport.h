//===- RunReport.h - Versioned machine-readable run outcome -----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One SEMINAL run distilled to a schema-versioned record (DESIGN.md
/// section 10): program identity, the ranked suggestion outcomes, the
/// quality verdict against ground truth when it is known, and the
/// per-layer effort breakdown. RunReports are what the corpus sweep
/// writes one-per-line into telemetry JSONL files, what the aggregate
/// quality snapshot is folded from, and what the offline search-explorer
/// renders next to the span trace.
///
/// Schema compatibility rule: consumers reject records whose
/// schema_version differs from their own; *adding* a field is allowed
/// without a bump (consumers must ignore unknown fields), while
/// removing, renaming or changing the meaning of any existing field
/// requires incrementing RunReportSchemaVersion. The committed
/// bench/BASELINE_telemetry.json pins the version, so an accidental
/// incompatible change fails the CI telemetry gate.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_OBS_RUNREPORT_H
#define SEMINAL_OBS_RUNREPORT_H

#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace seminal {
namespace obs {

/// Bumped on any incompatible change to the RunReport JSON layout (see
/// the file comment for the compatibility rule).
///
/// v2: effort gained a mandatory "cost" object -- the per-request cost
/// ledger (cpu_ns / wall_ns / oracle_calls / inference_runs /
/// arena_nodes / arena_bytes / verdict_cache_hits). Consumers that
/// reconcile effort against the ledger must not read v1 records, hence
/// the bump rather than a silent field addition.
///
/// v3: effort lost "batches" and "wave_collapsed" with the batched
/// candidate path they counted; "cache_hits" now counts only the
/// conventional-verdict memo.
///
/// v4: effort lost "slice_pruned_calls", and each effort.layers entry
/// lost "pruned", with the slice-guided search that counted them.
///
/// v5: effort and its cost object lost "arena_nodes", and effort lost
/// "arena_hits", with the AST arena that counted them; "arena_bytes" now
/// counts the bytes the oracle retains for its next request (a session's
/// checkpoint types plus source), not interned AST nodes.
///
/// v6: effort.layers is the oracle's call ledger, written for every run:
/// per layer, "calls" (logical oracle calls) and "accepted" (true
/// verdicts, or returned types) replace "tried"/"succeeded" (candidate
/// outcomes noted by a telemetry sink, when one was attached), and the
/// calls sum to oracle_calls. effort lost "calls_by_layer", the traced
/// copy of those calls, and "cache_misses", which no layer counted.
///
/// v7: "cache_hits" (and the cost object's "verdict_cache_hits") counts
/// the calls answered from the declarations the conventional run
/// proved -- the opening probe and the localization walk -- where it
/// counted the conventional-verdict memo's hits; "arena_bytes" no longer
/// includes a memo's source text, and is 0 outside a daemon session.
inline constexpr int RunReportSchemaVersion = 7;

/// One ranked suggestion, flattened for reporting.
struct SuggestionOutcome {
  int Rank = 0; ///< 1-based position in the final ranking.
  std::string Kind;        ///< "constructive", "adaptation", ...
  std::string Layer;       ///< Search layer credited with the find.
  std::string Description; ///< The human-readable edit.
  std::string Path;        ///< NodePath rendering of the site.
  bool ViaTriage = false;
  bool InSlice = false;
  bool LikelyUnbound = false;
  int Priority = 0;
  unsigned OriginalSize = 0;
  unsigned ReplacementSize = 0;
};

/// Everything one run produced, as plain data. Sections mirror the JSON
/// layout: program identity / outcome / quality / effort / slice.
struct RunReport {
  int SchemaVersion = RunReportSchemaVersion;

  // Identity ----------------------------------------------------------------
  /// Stable name for the input ("p3/a2/c17" for corpus files, the file
  /// name or "<expr>" for CLI runs).
  std::string ProgramId;
  int Programmer = -1; ///< -1 = not a corpus file.
  int Assignment = -1;
  int ClassId = -1;
  /// Structural hash of the input program (caml::hashProgram).
  uint64_t SourceHash = 0;
  /// Injected mutation kinds when ground truth is known (empty = none /
  /// unknown).
  std::vector<std::string> MutationKinds;

  // Outcome -----------------------------------------------------------------
  bool Parsed = true;
  bool InputTypechecks = false;
  bool BudgetExhausted = false;
  int FailingDecl = -1; ///< -1 = none identified.
  std::vector<SuggestionOutcome> Suggestions; ///< Ranked, best first.

  /// Layer/kind of the top-ranked suggestion ("" when none).
  std::string WinningLayer;
  std::string WinningKind;

  // Quality (when ground truth is known) ------------------------------------
  /// qualityName() strings, or "unknown" when no ground truth exists.
  std::string QualityChecker = "unknown";
  std::string QualityOurs = "unknown";
  std::string QualityNoTriage = "unknown";
  /// Figure-5 category 1-5; 0 = unknown.
  int Bucket = 0;
  /// 1-based rank of the first suggestion judged Accurate against the
  /// ground truth; 0 = the true fix is not in the ranked list (or no
  /// ground truth).
  int RankOfTrueFix = 0;

  // Effort ------------------------------------------------------------------
  uint64_t OracleCalls = 0;
  uint64_t InferenceRuns = 0;
  double WallSeconds = 0.0;
  /// Thread CPU the run consumed, stamped by whoever measured it
  /// (Session::check, seminal_cli); 0 when nobody did. Hardware-dependent
  /// and never gated.
  uint64_t CpuNs = 0;
  /// Acceleration-layer counters for the run (memo hits, checkpoint
  /// reuse, retained bytes).
  AccelCounters Accel;
  /// Oracle calls and accepts per search layer (Oracle::ledger).
  CallLedger Layers;

  // Slice -------------------------------------------------------------------
  bool SliceValid = false;
  size_t SliceInfluence = 0;
  size_t SliceCore = 0;
  /// NodePath renderings for the explorer's slice overlay.
  std::vector<std::string> SliceCorePaths;
  std::vector<std::string> SliceInfluencePaths;

  /// Serializes the report. \p Pretty adds indentation; the default is
  /// one compact object suitable for JSONL (a single line, no trailing
  /// newline).
  void writeJson(std::ostream &OS, bool Pretty = false) const;
};

} // namespace obs
} // namespace seminal

#endif // SEMINAL_OBS_RUNREPORT_H
