//===- bench_oracle_calls.cpp - Search-effort ablation (Section 2.2) ------==//
//
// Measures the oracle-call economy of the paper's "More Efficient
// Search" machinery: gating expensive change families (argument
// permutations) behind cheap all-wildcard probes, computed lazily.
// Compares gated vs exhaustive enumeration, and triage on vs off, on
// programs engineered to stress each mechanism.
//
// Also the home of the oracle-acceleration comparison: the same driver
// (runSeminalWithOracle) runs every Figure-7 corpus file over CamlOracle,
// the unaccelerated reference, and over CheckpointedOracle, verifying
// that the accelerated searches reproduce the reference exactly (same
// ranked suggestions, same logical-call counts) while measuring the
// wall-clock and inference-run savings. --json=<path> emits the summary
// for CI trajectory tracking.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/CheckpointedOracle.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "minicaml/Printer.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace seminal;
using namespace seminal::bench;

namespace {

void compare(const char *Label, const std::string &Source) {
  SeminalOptions Gated;
  SeminalOptions Ungated;
  Ungated.Search.Enum.GateExpensiveChanges = false;

  SeminalReport RG = runSeminalOnSource(Source, Gated);
  SeminalReport RU = runSeminalOnSource(Source, Ungated);
  double Saved = RU.OracleCalls == 0
                     ? 0.0
                     : 100.0 * (1.0 - double(RG.OracleCalls) /
                                          double(RU.OracleCalls));
  std::printf("%-44s gated %6zu   exhaustive %6zu   saved %5.1f%%\n",
              Label, RG.OracleCalls, RU.OracleCalls, Saved);
}

void compareTriage(const char *Label, const std::string &Source) {
  SeminalOptions On;
  SeminalOptions Off;
  Off.Search.EnableTriage = false;
  SeminalReport ROn = runSeminalOnSource(Source, On);
  SeminalReport ROff = runSeminalOnSource(Source, Off);
  std::printf("%-44s triage-on %6zu   triage-off %6zu   suggestions "
              "%zu vs %zu\n",
              Label, ROn.OracleCalls, ROff.OracleCalls,
              ROn.Suggestions.size(), ROff.Suggestions.size());
}

//===----------------------------------------------------------------------===//
// Oracle acceleration on vs off over the Figure-7 corpus
//===----------------------------------------------------------------------===//

/// Order-sensitive digest of a report's ranked suggestions, used to
/// verify that acceleration never changes search results.
std::string fingerprint(const SeminalReport &R) {
  std::string Out;
  for (const Suggestion &S : R.Suggestions) {
    Out += std::to_string(int(S.Kind)) + "/" + S.Path.str() + "/";
    if (S.Original)
      Out += caml::printExpr(*S.Original);
    Out += "=>";
    if (S.Replacement)
      Out += caml::printExpr(*S.Replacement);
    Out += "/" + S.Description + "/" + S.PatternBefore + ";";
  }
  return Out;
}

/// One search of \p Source over a fresh \p OracleT.
template <typename OracleT>
SeminalReport searchWith(const std::string &Source) {
  OracleT TheOracle;
  return runSeminalWithOracle(TheOracle, *caml::parseProgram(Source).Prog);
}

struct AccelRow {
  const char *Name;
  SeminalReport (*Search)(const std::string &);
  // Measured:
  double WallSec = 0.0;
  size_t LogicalCalls = 0;
  size_t InferenceRuns = 0;
  AccelCounters Counters = {};
  size_t SuggestionMismatches = 0;
  size_t CallCountMismatches = 0;
};

void runAccelComparison(const DriverOptions &Driver) {
  header("Oracle acceleration on vs off (Figure-7 corpus)");
  CorpusOptions CO;
  CO.Scale = Driver.Scale;
  CO.Seed = Driver.Seed;
  Corpus C = generateCorpus(CO);

  std::vector<AccelRow> Rows = {
      {"acceleration off", searchWith<CamlOracle>},
      {"acceleration on", searchWith<CheckpointedOracle>},
  };

  // Baseline fingerprints come from the acceleration-off configuration.
  std::vector<std::string> BaseFps;
  std::vector<size_t> BaseCalls;

  for (size_t RowIdx = 0; RowIdx < Rows.size(); ++RowIdx) {
    AccelRow &Row = Rows[RowIdx];
    for (size_t I = 0; I < C.Analyzed.size(); ++I) {
      const CorpusFile &F = C.Analyzed[I];
      // Min-of-2 wall clock: millisecond-scale runs are scheduler noise.
      double Best = 1e30;
      SeminalReport R;
      for (int Rep = 0; Rep < 2; ++Rep) {
        auto Start = std::chrono::steady_clock::now();
        R = Row.Search(F.Source);
        double Sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
        if (Sec < Best)
          Best = Sec;
      }
      Row.WallSec += Best;
      Row.LogicalCalls += R.OracleCalls;
      Row.InferenceRuns += R.InferenceRuns;
      Row.Counters += R.Accel;
      if (RowIdx == 0) {
        BaseFps.push_back(fingerprint(R));
        BaseCalls.push_back(R.OracleCalls);
      } else {
        if (fingerprint(R) != BaseFps[I])
          ++Row.SuggestionMismatches;
        if (R.OracleCalls != BaseCalls[I])
          ++Row.CallCountMismatches;
      }
    }
  }

  std::printf("%zu analyzed files, %zu logical oracle calls per "
              "configuration\n\n",
              C.Analyzed.size(), Rows[0].LogicalCalls);
  std::printf("%-24s %9s %9s %10s %10s %9s %10s\n", "configuration",
              "wall ms", "ms/file", "calls", "inf runs", "known pfx",
              "identical");
  rule();
  const AccelRow &Base = Rows[0];
  for (const AccelRow &Row : Rows) {
    bool Identical =
        Row.SuggestionMismatches == 0 && Row.CallCountMismatches == 0;
    std::printf("%-24s %9.1f %9.3f %10zu %10zu %9llu %10s\n", Row.Name,
                Row.WallSec * 1000.0,
                Row.WallSec * 1000.0 / double(C.Analyzed.size()),
                Row.LogicalCalls, Row.InferenceRuns,
                (unsigned long long)Row.Counters.CacheHits,
                &Row == &Base ? "(base)" : Identical ? "yes" : "NO");
  }
  rule();
  const AccelRow &Full = Rows[1];
  double Speedup = Full.WallSec > 0.0 ? Base.WallSec / Full.WallSec : 0.0;
  std::printf("acceleration speedup: %.2fx wall-clock per search "
              "(%.3f -> %.3f ms/file)\n",
              Speedup, Base.WallSec * 1000.0 / double(C.Analyzed.size()),
              Full.WallSec * 1000.0 / double(C.Analyzed.size()));
  std::printf("acceleration on: %zu of %zu logical calls actually ran "
              "inference (%.1f%%); %llu prefix decl re-checks saved\n",
              Full.InferenceRuns, Full.LogicalCalls,
              100.0 * double(Full.InferenceRuns) /
                  double(Full.LogicalCalls ? Full.LogicalCalls : 1),
              (unsigned long long)Full.Counters.DeclInferencesSaved);
  std::printf("\naccelerated-configuration counters:\n%s",
              Full.Counters.render().c_str());

  if (!Driver.JsonPath.empty()) {
    std::FILE *F = std::fopen(Driver.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Driver.JsonPath.c_str());
      std::exit(1);
    }
    std::fprintf(F, "{\n  \"bench\": \"oracle_calls_accel\",\n");
    std::fprintf(F, "  \"files\": %zu,\n  \"scale\": %g,\n  \"seed\": %llu,\n",
                 C.Analyzed.size(), Driver.Scale,
                 (unsigned long long)Driver.Seed);
    std::fprintf(F, "  \"speedup_wall\": %.4f,\n", Speedup);
    std::fprintf(F, "  \"configs\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I) {
      const AccelRow &Row = Rows[I];
      std::fprintf(
          F,
          "    {\"name\": \"%s\", \"wall_ms\": %.3f, \"logical_calls\": "
          "%zu, \"inference_runs\": %zu, \"cache_hits\": %llu, "
          "\"incremental\": %llu, \"full\": %llu, "
          "\"decl_rechecks_saved\": %llu, "
          "\"suggestion_mismatches\": %zu, \"call_count_mismatches\": "
          "%zu}%s\n",
          Row.Name, Row.WallSec * 1000.0, Row.LogicalCalls,
          Row.InferenceRuns, (unsigned long long)Row.Counters.CacheHits,
          (unsigned long long)Row.Counters.IncrementalInferences,
          (unsigned long long)Row.Counters.FullInferences,
          (unsigned long long)Row.Counters.DeclInferencesSaved,
          Row.SuggestionMismatches, Row.CallCountMismatches,
          I + 1 < Rows.size() ? "," : "");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", Driver.JsonPath.c_str());
  }

  // Make the acceptance contract loud in CI logs.
  for (const AccelRow &Row : Rows)
    if (Row.SuggestionMismatches || Row.CallCountMismatches) {
      std::fprintf(stderr,
                   "FAIL: configuration \"%s\" diverged from baseline\n",
                   Row.Name);
      std::exit(1);
    }
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Driver = parseDriverArgs(Argc, Argv);

  header("Ablation: gated/lazy enumeration vs exhaustive (Section 2.2)");
  compare("4-arg call, no permutation can help",
          "let f a b c = a + b + c\nlet x = f 1 2 \"s\" true");
  compare("4-arg call, permutation fixes it",
          "let f a b s t = (a + b, s ^ t)\n"
          "let x = f 1 \"u\" 2 \"v\"");
  compare("4-tuple where only a 3-tuple fits",
          "let f (p, q, r) = p + q + r\n"
          "let x = f (1, 2, \"a\", true)");
  compare("3-tuple, permutation fixes it",
          "let f (p, q, r) = p + q + String.length r\n"
          "let x = f (1, \"s\", 2)");

  std::printf("\n");
  header("Ablation: triage on vs off (Section 2.4)");
  compareTriage("single error (triage never triggers)",
                "let x = 1 + \"two\"");
  compareTriage("two independent errors",
                "let go y =\n"
                "  let a = 3 + true in\n"
                "  let b = 4 + \"hi\" in\n"
                "  y + 1");
  compareTriage("three independent errors",
                "let go y =\n"
                "  let a = 3 + true in\n"
                "  let b = 4 + \"hi\" in\n"
                "  let c = if 7 then 1 else 2 in\n"
                "  y + 1");

  std::printf("\n");
  runAccelComparison(Driver);
  return 0;
}
