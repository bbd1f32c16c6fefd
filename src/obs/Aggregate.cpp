//===- Aggregate.cpp - Corpus-sweep quality snapshot ------------------------==//

#include "obs/Aggregate.h"

#include "support/Trace.h" // jsonEscape

using namespace seminal;
using namespace seminal::obs;

void TelemetryAggregate::add(const RunReport &R) {
  ++Files;
  size_t B = R.Bucket >= 1 && R.Bucket <= 5 ? size_t(R.Bucket) : 0;
  ++Buckets[B];

  ++QualityDist["checker"][R.QualityChecker];
  ++QualityDist["ours"][R.QualityOurs];
  ++QualityDist["ours_no_triage"][R.QualityNoTriage];

  if (!R.WinningLayer.empty())
    ++LayerWins[R.WinningLayer];
  else
    ++NoSuggestion;

  if (R.RankOfTrueFix > 0) {
    ++TrueFixFound;
    Ranks.add(double(R.RankOfTrueFix));
  }

  OracleCalls += R.OracleCalls;
  InferenceRuns += R.InferenceRuns;
  CacheHits += R.Accel.CacheHits;
  if (R.SliceValid)
    ++FilesSliced;
  WallSeconds += R.WallSeconds;
}

void TelemetryAggregate::writeSnapshotJson(std::ostream &OS,
                                           const SnapshotInfo &Info) {
  auto Pct = [&](uint64_t N) {
    return Files == 0 ? 0.0 : 100.0 * double(N) / double(Files);
  };
  char Buf[64];
  auto F = [&](double D) {
    std::snprintf(Buf, sizeof(Buf), "%.4f", D);
    return std::string(Buf);
  };

  uint64_t OursBetter = Buckets[3] + Buckets[4];
  uint64_t CheckerBetter = Buckets[5];
  uint64_t NoWorse = Buckets[1] + Buckets[2] + Buckets[3] + Buckets[4];
  uint64_t TriageHelped = Buckets[2] + Buckets[4];

  OS << "{\n";
  OS << "  \"bench\": \"telemetry\",\n";
  OS << "  \"schema_version\": " << RunReportSchemaVersion << ",\n";
  OS << "  \"files\": " << Files << ",\n";
  OS << "  \"scale\": " << F(Info.Scale) << ",\n";
  OS << "  \"seed\": " << Info.Seed << ",\n";
  OS << "  \"config\": \"" << jsonEscape(Info.Config) << "\",\n";

  OS << "  \"buckets\": {";
  for (size_t B = 1; B <= 5; ++B)
    OS << "\"" << B << "\": " << Buckets[B] << (B < 5 ? ", " : "");
  OS << "},\n";
  OS << "  \"unknown_bucket\": " << Buckets[0] << ",\n";

  OS << "  \"quality\": {\n";
  size_t PI = 0;
  for (const auto &Producer : QualityDist) {
    OS << "    \"" << jsonEscape(Producer.first) << "\": {";
    size_t QI = 0;
    for (const auto &KV : Producer.second) {
      OS << "\"" << jsonEscape(KV.first) << "\": " << KV.second;
      if (++QI < Producer.second.size())
        OS << ", ";
    }
    OS << "}" << (++PI < QualityDist.size() ? "," : "") << "\n";
  }
  OS << "  },\n";

  OS << "  \"ours_better_pct\": " << F(Pct(OursBetter)) << ",\n";
  OS << "  \"checker_better_pct\": " << F(Pct(CheckerBetter)) << ",\n";
  OS << "  \"no_worse_pct\": " << F(Pct(NoWorse)) << ",\n";
  OS << "  \"triage_helped_pct\": " << F(Pct(TriageHelped)) << ",\n";

  OS << "  \"rank_of_true_fix\": {\"found\": " << TrueFixFound
     << ", \"found_pct\": " << F(Pct(TrueFixFound));
  if (!Ranks.empty())
    OS << ", \"p50\": " << F(Ranks.percentile(0.50))
       << ", \"p95\": " << F(Ranks.percentile(0.95))
       << ", \"max\": " << F(Ranks.max());
  OS << "},\n";

  OS << "  \"layer_wins\": {";
  size_t LI = 0;
  for (const auto &KV : LayerWins) {
    OS << "\"" << jsonEscape(KV.first) << "\": " << KV.second;
    if (++LI < LayerWins.size())
      OS << ", ";
  }
  OS << "},\n";
  OS << "  \"no_suggestion\": " << NoSuggestion << ",\n";

  OS << "  \"oracle_calls\": " << OracleCalls << ",\n";
  OS << "  \"inference_runs\": " << InferenceRuns << ",\n";
  OS << "  \"cache_hits\": " << CacheHits << ",\n";
  OS << "  \"files_sliced\": " << FilesSliced << ",\n";
  OS << "  \"wall_seconds\": " << F(WallSeconds) << "\n";
  OS << "}\n";
}
