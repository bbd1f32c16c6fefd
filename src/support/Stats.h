//===- Stats.h - Histograms, CDFs and summary statistics --------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small statistics helpers used by the benchmark harnesses: percentile
/// queries over samples (Figure 7's CDF), log-scale histograms (Figure 6),
/// and fraction-below-threshold queries ("completed in less than 4 seconds
/// on over 75% of files").
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SUPPORT_STATS_H
#define SEMINAL_SUPPORT_STATS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace seminal {

/// Hit/saved-work counters for the oracle acceleration layer
/// (prefix-environment checkpointing, the conventional-verdict memo and
/// session retention -- see core/CheckpointedOracle.h). Kept in support
/// so both the oracle and the bench harnesses can consume them without a
/// dependency cycle.
struct AccelCounters {
  /// Verdicts served by the conventional-verdict memo
  /// (OracleAccelOptions::VerdictCache) instead of inference.
  uint64_t CacheHits = 0;
  /// Always zero: no layer counts misses (a memo miss is an ordinary
  /// inference run). Kept for the hit-fraction readers of the benchmark.
  uint64_t CacheMisses = 0;
  /// Whole-program inference runs (checkpoint unavailable or bypassed).
  uint64_t FullInferences = 0;
  /// Single-declaration runs against a prefix checkpoint.
  uint64_t IncrementalInferences = 0;
  /// Declarations whose re-inference a checkpoint skipped: for each
  /// incremental run, the prefix length it did not have to re-check.
  uint64_t DeclInferencesSaved = 0;
  /// Checkpoint seeds installed / queries that fell back to full
  /// inference because the program shape did not match the seed.
  uint64_t CheckpointSeeds = 0;
  uint64_t CheckpointFallbacks = 0;
  /// Unification-variable allocations across all inference performed; a
  /// hardware-independent work proxy (TypecheckResult::TypesAllocated).
  uint64_t TypesAllocated = 0;
  /// Hash-consing arena occupancy at the end of the run
  /// (minicaml/Arena.h): distinct nodes stored, intern requests answered
  /// by an existing node, and approximate retained bytes. Zero for
  /// one-shot searches, which intern nothing.
  uint64_t ArenaNodes = 0;
  uint64_t ArenaHits = 0;
  uint64_t ArenaBytes = 0;
  /// Session warm-state reuse (server mode; all zero for one-shot runs).
  /// Localization probes answered from a prefix the session already
  /// proved (no inference), prefix checkpoints re-adopted wholesale at
  /// seedPrefix, and conventional errors served from the session's
  /// source-prefix memo.
  uint64_t SessionPrefixHits = 0;
  uint64_t SessionSeedAdoptions = 0;
  uint64_t SessionConvMemoHits = 0;

  /// Inference actually performed, as opposed to logical search effort.
  uint64_t inferenceRuns() const {
    return FullInferences + IncrementalInferences;
  }

  void reset() { *this = AccelCounters(); }
  AccelCounters &operator+=(const AccelCounters &Other);

  /// Multi-line human-readable rendering for bench output.
  std::string render() const;
};

/// An accumulating sample set with percentile/CDF queries.
class Samples {
public:
  void add(double Value) { Values.push_back(Value); Sorted = false; }
  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }

  double min();
  double max();
  double mean() const;

  /// \p Q in [0, 1]; nearest-rank percentile.
  double percentile(double Q);

  /// Fraction of samples <= \p Threshold.
  double fractionBelow(double Threshold);

  /// Evenly spaced (value, cumulative-fraction) points for plotting a CDF.
  std::vector<std::pair<double, double>> cdf(size_t Points = 20);

  const std::vector<double> &values() const { return Values; }

private:
  void ensureSorted();

  std::vector<double> Values;
  bool Sorted = false;
};

/// Integer-keyed frequency counter with an ASCII renderer; used for the
/// equivalence-class-size distribution of Figure 6.
class Histogram {
public:
  void add(int64_t Key) { ++Counts[Key]; }
  void add(int64_t Key, uint64_t N) { Counts[Key] += N; }

  uint64_t count(int64_t Key) const;
  uint64_t total() const;
  bool empty() const { return Counts.empty(); }

  const std::map<int64_t, uint64_t> &buckets() const { return Counts; }

  /// Renders one row per bucket with a bar whose length is proportional to
  /// log(count), matching the log-scale presentation in the paper.
  std::string renderLogScale(const std::string &KeyHeader,
                             const std::string &CountHeader) const;

private:
  std::map<int64_t, uint64_t> Counts;
};

} // namespace seminal

#endif // SEMINAL_SUPPORT_STATS_H
