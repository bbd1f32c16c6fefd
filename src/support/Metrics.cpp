//===- Metrics.cpp - Named sample series derived from a trace --------------==//

#include "support/Metrics.h"

#include <cstdio>
#include <sstream>

using namespace seminal;

Metrics Metrics::fromTrace(const std::vector<TraceEvent> &Events) {
  Metrics M;
  // Every candidate span is a direct child of the node visit that
  // enumerated it: one tryCandidates pass per node.
  std::map<uint64_t, size_t> CandidatesByNode;
  for (const TraceEvent &E : Events) {
    switch (E.Kind) {
    case SpanKind::OracleCall:
      M.observe(metric::OracleLatencyUs, double(E.DurNs) / 1000.0);
      if (const TraceAttr *Depth = E.attr("reuse_depth"))
        M.observe(metric::CheckpointReuseDepth, double(Depth->Int));
      break;
    case SpanKind::Candidate:
      ++CandidatesByNode[E.Parent];
      break;
    case SpanKind::TriagePhase: {
      const TraceAttr *Works = E.attr("context_works");
      const TraceAttr *Removed = E.attr("siblings_removed");
      if (Works && Works->Flag && Removed)
        M.observe(metric::TriageRemovals, double(Removed->Int));
      break;
    }
    case SpanKind::Slice: {
      const TraceAttr *Valid = E.attr("valid");
      const TraceAttr *Influence = E.attr("influence");
      const TraceAttr *DeclNodes = E.attr("decl_nodes");
      if (!Valid || !Valid->Flag || !Influence || !DeclNodes)
        break;
      M.observe(metric::SliceSize, double(Influence->Int));
      if (DeclNodes->Int)
        M.observe(metric::SlicePruneRatio,
                  1.0 - double(Influence->Int) / double(DeclNodes->Int));
      break;
    }
    default:
      break;
    }
  }
  for (const auto &KV : CandidatesByNode)
    M.observe(metric::CandidatesPerNode, double(KV.second));
  return M;
}

void Metrics::observe(const char *Name, double Value) {
  Series[Name].add(Value);
}

std::vector<std::string> Metrics::names() const {
  std::vector<std::string> Out;
  Out.reserve(Series.size());
  for (const auto &KV : Series)
    Out.push_back(KV.first);
  return Out;
}

MetricSummary Metrics::summary(const std::string &Name) const {
  auto It = Series.find(Name);
  if (It == Series.end())
    return MetricSummary();
  Samples Copy = It->second; // percentile() sorts in place
  MetricSummary S;
  S.Count = Copy.size();
  if (S.Count == 0)
    return S;
  S.Min = Copy.min();
  S.Mean = Copy.mean();
  S.P50 = Copy.percentile(0.50);
  S.P95 = Copy.percentile(0.95);
  S.Max = Copy.max();
  return S;
}

std::string Metrics::render() const {
  std::ostringstream OS;
  char Row[160];
  std::snprintf(Row, sizeof(Row), "  %-32s %8s %10s %10s %10s %10s\n",
                "metric", "count", "p50", "p95", "max", "mean");
  OS << Row;
  for (const std::string &Name : names()) {
    MetricSummary S = summary(Name);
    std::snprintf(Row, sizeof(Row),
                  "  %-32s %8zu %10.3f %10.3f %10.3f %10.3f\n", Name.c_str(),
                  S.Count, S.P50, S.P95, S.Max, S.Mean);
    OS << Row;
  }
  return OS.str();
}

void Metrics::writeJson(std::ostream &OS) const {
  OS << "{";
  bool First = true;
  for (const std::string &Name : names()) {
    MetricSummary S = summary(Name);
    if (!First)
      OS << ",";
    First = false;
    char Buf[224];
    std::snprintf(Buf, sizeof(Buf),
                  "\n  \"%s\": {\"count\": %zu, \"min\": %.6g, \"mean\": "
                  "%.6g, \"p50\": %.6g, \"p95\": %.6g, \"max\": %.6g}",
                  Name.c_str(), S.Count, S.Min, S.Mean, S.P50, S.P95, S.Max);
    OS << Buf;
  }
  OS << "\n}";
}
