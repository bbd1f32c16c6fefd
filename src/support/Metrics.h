//===- Metrics.h - Named sample series derived from a trace -----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer sample series for the search pipeline (oracle latency,
/// candidates per node, checkpoint reuse depth, ...) with percentile
/// summaries and a JSON snapshot for the BENCH_*.json trajectory files.
///
/// Metrics is a view of a finished trace: fromTrace() derives every
/// series from span durations and attributes, so the search reports
/// through the trace alone and nothing calls into a Metrics while it
/// runs. A value has one owner and no lock.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SUPPORT_METRICS_H
#define SEMINAL_SUPPORT_METRICS_H

#include "support/Stats.h"
#include "support/Trace.h"

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace seminal {

/// Summary statistics for one metric series.
struct MetricSummary {
  size_t Count = 0;
  double Min = 0.0;
  double Mean = 0.0;
  double P50 = 0.0;
  double P95 = 0.0;
  double Max = 0.0;
};

/// Well-known metric names, kept in one place so producers and
/// consumers (benches, the CLI `--metrics` report) agree.
namespace metric {
inline constexpr const char *OracleLatencyUs = "oracle.latency_us";
inline constexpr const char *CandidatesPerNode = "search.candidates_per_node";
inline constexpr const char *CheckpointReuseDepth =
    "oracle.checkpoint_reuse_depth";
inline constexpr const char *TriageRemovals = "triage.sibling_removals";
inline constexpr const char *SliceSize = "slice.size";
inline constexpr const char *SlicePruneRatio = "slice.prune_ratio";
} // namespace metric

/// Named sample series.
class Metrics {
public:
  /// The six well-known series of \p Events (a TraceSink snapshot):
  ///   * oracle.latency_us -- every oracle-call span's duration;
  ///   * oracle.checkpoint_reuse_depth -- oracle-call `reuse_depth`;
  ///   * search.candidates_per_node -- candidate spans per parent node;
  ///   * triage.sibling_removals -- `siblings_removed` of each triage
  ///     phase whose context worked;
  ///   * slice.size, slice.prune_ratio -- from each valid slice span.
  static Metrics fromTrace(const std::vector<TraceEvent> &Events);

  /// Appends \p Value to the series \p Name (creating it on first use).
  void observe(const char *Name, double Value);

  /// Series names in lexicographic order.
  std::vector<std::string> names() const;

  /// Summary of one series (all zeros for an unknown name).
  MetricSummary summary(const std::string &Name) const;

  /// Count/p50/p95/max table, one row per series.
  std::string render() const;

  /// JSON object {"name": {"count": n, "p50": ..., ...}, ...}.
  void writeJson(std::ostream &OS) const;

  bool empty() const { return Series.empty(); }
  void clear() { Series.clear(); }

private:
  std::map<std::string, Samples> Series;
};

} // namespace seminal

#endif // SEMINAL_SUPPORT_METRICS_H
