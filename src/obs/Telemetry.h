//===- Telemetry.h - Outcome telemetry sink ---------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The outcome half of the observability stack (DESIGN.md section 10).
/// Where the trace subsystem (support/Trace.h) records the search
/// *process* -- spans, timings, cache hits -- the telemetry sink records
/// what the search *concluded*: one CandidateOutcome per edit the
/// searcher put to the oracle (which layer asked, what kind of change,
/// what the verdict was), plus one record per ranked suggestion with its
/// final rank. A RunReport aggregates the stream per run; a corpus sweep
/// aggregates RunReports into the quality snapshot CI gates on.
///
/// Like TraceSink and Metrics, a TelemetrySink is attached by pointer and
/// null means disabled: every instrumentation site pays one branch.
/// Telemetry is observational only -- suggestions, call counts and
/// ranking are byte-identical with the sink attached or not (enforced by
/// tests/ObsTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_OBS_TELEMETRY_H
#define SEMINAL_OBS_TELEMETRY_H

#include "support/Sync.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace seminal {
namespace obs {

/// One candidate edit the search put to the oracle, as seen from the
/// outcome side.
struct CandidateOutcome {
  /// Search layer that asked: "localize", "removal", "adaptation",
  /// "constructive", "decl-change", "triage", "pattern-fix",
  /// "suggestion" (post-ranking records).
  std::string Layer;
  /// Change kind ("constructive", "adaptation", "removal",
  /// "pattern-fix", "probe", ...).
  std::string Kind;
  /// Human-readable description of the edit (may be empty for probes).
  std::string Description;
  /// NodePath rendering of the site ("" when not applicable).
  std::string Path;
  /// Did the oracle accept the edit?
  bool Verdict = false;
  /// Feasibility probe: steers follow-ups, never reported.
  bool Probe = false;
  /// 1-based rank among the final ranked suggestions; 0 for records that
  /// are not ranked suggestions.
  int Rank = 0;
};

/// Per-layer tallies over a record stream.
struct LayerStats {
  uint64_t Tried = 0;     ///< Outcomes put to the oracle.
  uint64_t Succeeded = 0; ///< Verdict == true among Tried.
};

/// Collects CandidateOutcomes from a run. One sink per run (or reused
/// across files with clear()); not owned by the components it observes.
class TelemetrySink {
public:
  /// Records one outcome. Thread-safe.
  void record(CandidateOutcome O);

  /// Number of records so far. Thread-safe.
  size_t size() const;

  /// Copy of the record stream in record order. Thread-safe.
  std::vector<CandidateOutcome> snapshot() const;

  /// Drops all records (reuse between files).
  void clear();

  /// Per-layer tallies of the recorded stream, excluding the
  /// post-ranking "suggestion" records (those duplicate outcomes already
  /// counted under their issuing layer).
  std::map<std::string, LayerStats> layerStats() const;

private:
  mutable sync::Mutex Mutex{sync::LockRank::Telemetry, "telemetry.sink"};
  std::vector<CandidateOutcome> Records SEMINAL_GUARDED_BY(Mutex);
};

} // namespace obs
} // namespace seminal

#endif // SEMINAL_OBS_TELEMETRY_H
