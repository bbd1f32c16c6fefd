//===- bench_micro.cpp - google-benchmark microbenchmarks ------------------==//
//
// Micro-level performance characterization backing Section 3.2's
// efficiency discussion: how fast one oracle call is (parse once,
// type-check many), how search cost scales with program size, and the
// relative cost of the search components. These are the quantities that
// make "the computational cost of searching should be measured against
// the speed of the human" concrete on this implementation.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/CheckpointedOracle.h"
#include "core/Oracle.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "corpus/Programs.h"
#include "minicaml/Lexer.h"
#include "minicaml/Parser.h"

#include <benchmark/benchmark.h>

#include <sstream>

using namespace seminal;
using namespace seminal::bench;
using namespace seminal::caml;

// Heap-allocation accounting for the --json report below. Timing-mode
// numbers from this binary therefore include the interposer's small
// constant overhead; it is uniform across benchmarks, and the absolute
// timings here are characterization, not a CI gate.
SEMINAL_BENCH_COUNT_ALLOCATIONS()

namespace {

/// A well-typed program with N chained declarations.
std::string chainProgram(int N) {
  std::ostringstream OS;
  OS << "let v0 = 1\n";
  for (int I = 1; I < N; ++I)
    OS << "let v" << I << " = v" << (I - 1) << " + " << I << "\n";
  return OS.str();
}

/// The first cohort of perfbench's Figure 7 corpus: seed 20070611 at
/// scale 1.5, 239 files, whatever --scale and --seed say, so its rows
/// stay comparable with perfbench's oneshot-corpus workload.
const Corpus &corpusCohort() {
  static const Corpus C = [] {
    CorpusOptions Opts;
    Opts.Seed = 20070611;
    Opts.Scale = 1.5;
    return generateCorpus(Opts);
  }();
  return C;
}

int64_t corpusCohortBytes() {
  int64_t Bytes = 0;
  for (const CorpusFile &F : corpusCohort().Analyzed)
    Bytes += int64_t(F.Source.size());
  return Bytes;
}

// Tokenizing alone, one iteration per cohort.
void BM_Lex(benchmark::State &State) {
  const Corpus &C = corpusCohort();
  for (auto _ : State)
    for (const CorpusFile &F : C.Analyzed) {
      std::vector<Token> Tokens = Lexer(F.Source).tokenize();
      benchmark::DoNotOptimize(Tokens.data());
    }
  State.SetBytesProcessed(State.iterations() * corpusCohortBytes());
}
BENCHMARK(BM_Lex);

// parseProgram, tokenizing included, one iteration per cohort.
void BM_Parse(benchmark::State &State) {
  const Corpus &C = corpusCohort();
  for (auto _ : State)
    for (const CorpusFile &F : C.Analyzed) {
      ParseResult R = parseProgram(F.Source);
      benchmark::DoNotOptimize(R);
    }
  State.SetBytesProcessed(State.iterations() * corpusCohortBytes());
}
BENCHMARK(BM_Parse);

void BM_TypecheckAssignment(benchmark::State &State) {
  std::string Source =
      assignmentTemplates()[size_t(State.range(0))].Source;
  ParseResult R = parseProgram(Source);
  for (auto _ : State) {
    TypecheckResult T = typecheckProgram(*R.Prog);
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_TypecheckAssignment)->DenseRange(0, 4);

void BM_TypecheckScaling(benchmark::State &State) {
  std::string Source = chainProgram(int(State.range(0)));
  ParseResult R = parseProgram(Source);
  for (auto _ : State) {
    TypecheckResult T = typecheckProgram(*R.Prog);
    benchmark::DoNotOptimize(T);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_TypecheckScaling)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_SearchFigure2(benchmark::State &State) {
  std::string Source =
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n";
  for (auto _ : State) {
    SeminalReport R = runSeminalOnSource(Source);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SearchFigure2);

// The same search with the trace subsystem enabled: the delta against
// BM_SearchFigure2 is the cost of recording every span and attribute.
// With sinks left null the overhead must stay under 2% (the disabled
// path is one pointer test per instrumentation site); this benchmark
// measures the *enabled* price so regressions in either mode show up.
void BM_SearchFigure2Traced(benchmark::State &State) {
  std::string Source =
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n";
  for (auto _ : State) {
    TraceSink Sink;
    Metrics M;
    SeminalOptions Opts;
    Opts.Search.Trace = &Sink;
    Opts.Search.Metric = &M;
    SeminalReport R = runSeminalOnSource(Source, Opts);
    benchmark::DoNotOptimize(R);
    benchmark::DoNotOptimize(Sink.eventCount());
  }
}
BENCHMARK(BM_SearchFigure2Traced);

// The disabled path in isolation: spans against a null sink must cost a
// branch and nothing else -- no clock reads, no allocation.
void BM_NullSpanOverhead(benchmark::State &State) {
  for (auto _ : State) {
    TraceSpan Span(nullptr, SpanKind::OracleCall, "oracle.typecheck");
    benchmark::DoNotOptimize(Span.enabled());
  }
}
BENCHMARK(BM_NullSpanOverhead);

void BM_SearchWithVsWithoutTriage(benchmark::State &State) {
  std::string Source = "let go y =\n"
                       "  let a = 3 + true in\n"
                       "  let b = 4 + \"hi\" in\n"
                       "  y + 1";
  SeminalOptions Opts;
  Opts.Search.EnableTriage = State.range(0) != 0;
  for (auto _ : State) {
    SeminalReport R = runSeminalOnSource(Source, Opts);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SearchWithVsWithoutTriage)->Arg(0)->Arg(1);

void BM_CloneAssignment(benchmark::State &State) {
  ParseResult R = parseProgram(assignmentTemplates()[3].Source);
  for (auto _ : State) {
    Program P;
    for (const DeclPtr &D : R.Prog->Decls)
      P.Decls.push_back(D->clone());
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_CloneAssignment);

void BM_MutateProgram(benchmark::State &State) {
  ParseResult R = parseProgram(assignmentTemplates()[0].Source);
  Rng Rand(1);
  for (auto _ : State) {
    auto M = mutateProgram(*R.Prog, 2, Rand);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_MutateProgram);

//===----------------------------------------------------------------------===//
// Allocation report (--json mode)
//===----------------------------------------------------------------------===//
//
// Measures the allocator load of one end-to-end search: the Figure 2
// program through runSeminalOnSource with the default options. Parsing,
// inference, candidate construction, suggestion capture and ranking all
// count. The total is deterministic for a given libstdc++ and gated by
// scripts/check_bench_regression.py with a tolerance, so per-candidate
// clone or intern traffic that creeps back shows up here. A second
// scenario isolates the per-candidate oracle call, whose inference
// allocates nothing once the inferencer's buffers are sized. A third
// averages one-shot checks over a whole corpus cohort, so copies of the
// unedited declarations, which grow with the file, show up too. A fourth
// parses the same cohort without checking it, so the front end's own
// allocations (tokens, nodes, child vectors, names) are gated apart.

struct AllocScenario {
  const char *Name;
  double Allocs; ///< Per search, or per call for the per-call scenario.
  uint64_t PeakBytes;
};

AllocReport runSearchScenario() {
  std::string Source =
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n"
      "let ans = List.filter (fun x -> x == 0) lst\n";
  // The first search in a process also builds the standard-library
  // environment (once per process); keep that out of the measurement.
  benchmark::DoNotOptimize(runSeminalOnSource(Source));
  AllocScope Scope;
  SeminalReport R = runSeminalOnSource(Source);
  benchmark::DoNotOptimize(R);
  return Scope.finish();
}

/// The search's per-candidate path: oracle calls after seedPrefix on the
/// Figure 2 program, alternating the failing declaration (which does not
/// type-check) with its fix (which does), as the searcher swaps
/// candidates into its working program. The first rounds size the
/// inferencer's trail and buffers and are not measured.
AllocReport runCheckpointCallScenario(uint64_t &Calls) {
  ParseResult Prefix = parseProgram(
      "let map2 f aList bList =\n"
      "  List.map (fun (a, b) -> f a b) (List.combine aList bList)\n"
      "let lst = map2 (fun (x, y) -> x + y) [1;2;3] [4;5;6]\n");
  ParseResult Fixed =
      parseProgram("let lst = map2 (fun x y -> x + y) [1;2;3] [4;5;6]\n");
  Program Work = std::move(*Prefix.Prog);
  DeclPtr Other = std::move(Fixed.Prog->Decls[0]);
  CheckpointedOracle Oracle;
  Oracle.seedPrefix(Work, 1);
  auto Round = [&] {
    bool Failing = Oracle.typechecks(Work);
    std::swap(Work.Decls[1], Other);
    bool Passing = Oracle.typechecks(Work);
    std::swap(Work.Decls[1], Other);
    if (Failing || !Passing)
      std::fprintf(stderr, "checkpoint scenario: unexpected verdicts\n");
  };
  for (int I = 0; I < 8; ++I)
    Round();
  constexpr int Rounds = 500;
  AllocScope Scope;
  for (int I = 0; I < Rounds; ++I)
    Round();
  Calls = 2 * Rounds;
  return Scope.finish();
}

/// One one-shot check, as seminal_cli runs it, per file of the corpus
/// cohort (corpusCohort). The corpus is generated before the scope
/// opens.
AllocReport runCorpusCheckScenario(uint64_t &Checks) {
  const Corpus &C = corpusCohort();
  benchmark::DoNotOptimize(runSeminalOnSource(C.Analyzed.front().Source));
  AllocScope Scope;
  for (const CorpusFile &F : C.Analyzed) {
    SeminalReport R = runSeminalOnSource(F.Source);
    benchmark::DoNotOptimize(R);
  }
  Checks = C.Analyzed.size();
  return Scope.finish();
}

/// parseProgram alone, tokens and tree, per file of the same cohort.
AllocReport runCorpusParseScenario(uint64_t &Files) {
  const Corpus &C = corpusCohort();
  AllocScope Scope;
  for (const CorpusFile &F : C.Analyzed) {
    ParseResult R = parseProgram(F.Source);
    benchmark::DoNotOptimize(R);
  }
  Files = C.Analyzed.size();
  return Scope.finish();
}

int runAllocReport(const DriverOptions &Driver) {
  if (!allocCountingActive()) {
    std::fprintf(stderr, "allocation interposer not linked?\n");
    return 1;
  }
  std::vector<AllocScenario> Rows;
  AllocReport Search = runSearchScenario();
  Rows.push_back({"search-figure2", double(Search.Allocs), Search.PeakBytes});
  uint64_t Calls = 0;
  AllocReport PerCall = runCheckpointCallScenario(Calls);
  Rows.push_back({"checkpoint-call-figure2",
                  double(PerCall.Allocs) / double(Calls), PerCall.PeakBytes});
  uint64_t Checks = 0;
  AllocReport PerCheck = runCorpusCheckScenario(Checks);
  Rows.push_back({"oneshot-check-corpus",
                  double(PerCheck.Allocs) / double(Checks), PerCheck.PeakBytes});
  uint64_t Files = 0;
  AllocReport PerParse = runCorpusParseScenario(Files);
  Rows.push_back({"parse-corpus", double(PerParse.Allocs) / double(Files),
                  PerParse.PeakBytes});

  header("Allocation report: one end-to-end search, one candidate call, "
         "one corpus check, one corpus parse");
  std::printf("%-28s %12s %14s\n", "scenario", "allocs", "peak bytes");
  rule();
  for (const AllocScenario &Row : Rows)
    std::printf("%-28s %12g %14llu\n", Row.Name, Row.Allocs,
                (unsigned long long)Row.PeakBytes);
  rule();

  if (!Driver.JsonPath.empty()) {
    std::FILE *F = std::fopen(Driver.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Driver.JsonPath.c_str());
      return 1;
    }
    std::fprintf(F, "{\n  \"bench\": \"micro_allocs\",\n");
    std::fprintf(F, "  \"scale\": %g,\n  \"seed\": %llu,\n", Driver.Scale,
                 (unsigned long long)Driver.Seed);
    std::fprintf(F, "  \"scenarios\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"allocs\": %g, "
                   "\"peak_bytes\": %llu}%s\n",
                   Rows[I].Name, Rows[I].Allocs,
                   (unsigned long long)Rows[I].PeakBytes,
                   I + 1 < Rows.size() ? "," : "");
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", Driver.JsonPath.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Driver-style arguments select the allocation report; anything else
  // goes to google-benchmark (timing mode).
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--json", 6) == 0 ||
        std::strncmp(Argv[I], "--scale", 7) == 0 ||
        std::strncmp(Argv[I], "--seed", 6) == 0)
      return runAllocReport(parseDriverArgs(Argc, Argv));

  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
