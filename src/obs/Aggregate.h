//===- Aggregate.h - Corpus-sweep quality snapshot --------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Folds the RunReports of one corpus sweep into the aggregate quality
/// snapshot CI gates on: the Figure-5 bucket distribution, quality
/// distributions for all three message producers, the rank-of-true-fix
/// percentiles, per-layer win counts and total search effort. The
/// snapshot is written in the same shape as the bench/BASELINE_*.json
/// trajectory files ("bench": "telemetry") and diffed by
/// scripts/compare_telemetry.py.
///
/// Every gated field is deterministic in (scale, seed): running the
/// sweep twice on the same commit yields byte-identical values for all
/// of them. Wall-clock totals are carried for trend plots but never
/// gated.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_OBS_AGGREGATE_H
#define SEMINAL_OBS_AGGREGATE_H

#include "obs/RunReport.h"
#include "support/Stats.h"

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace seminal {
namespace obs {

/// Sweep-identity fields stamped into the snapshot header so the diff
/// script can refuse to compare apples to oranges.
struct SnapshotInfo {
  double Scale = 1.0;
  uint64_t Seed = 0;
  /// Configuration label ("full", "no-triage", ...); informational --
  /// the gate compares quality numbers, whatever produced them.
  std::string Config = "full";
};

/// Accumulates RunReports and renders the aggregate snapshot.
class TelemetryAggregate {
public:
  void add(const RunReport &R);

  size_t files() const { return Files; }

  /// Writes the snapshot ("bench": "telemetry", schema-versioned).
  void writeSnapshotJson(std::ostream &OS, const SnapshotInfo &Info);

private:
  size_t Files = 0;
  /// Figure-5 buckets, indexed by category 1-5 ([0] counts unknowns).
  std::array<uint64_t, 6> Buckets = {};
  /// Quality distribution per producer: [producer][quality-name].
  std::map<std::string, std::map<std::string, uint64_t>> QualityDist;
  /// Files whose top-ranked suggestion came from each layer.
  std::map<std::string, uint64_t> LayerWins;
  /// Rank-of-true-fix samples (files where the true fix was ranked).
  Samples Ranks;
  uint64_t TrueFixFound = 0;
  uint64_t NoSuggestion = 0;

  uint64_t OracleCalls = 0;
  uint64_t InferenceRuns = 0;
  uint64_t CacheHits = 0;
  uint64_t FilesSliced = 0;
  double WallSeconds = 0.0;
};

} // namespace obs
} // namespace seminal

#endif // SEMINAL_OBS_AGGREGATE_H
