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
#include "core/Oracle.h"
#include "core/Seminal.h"
#include "corpus/Generator.h"
#include "corpus/Programs.h"
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

void BM_Lex(benchmark::State &State) {
  std::string Source = assignmentTemplates()[1].Source;
  for (auto _ : State) {
    ParseResult R = parseProgram(Source);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Lex);

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
    Program P = R.Prog->clone();
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
// clone or intern traffic that creeps back shows up here.

struct AllocScenario {
  const char *Name;
  AllocReport R;
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

int runAllocReport(const DriverOptions &Driver) {
  if (!allocCountingActive()) {
    std::fprintf(stderr, "allocation interposer not linked?\n");
    return 1;
  }
  std::vector<AllocScenario> Rows;
  Rows.push_back({"search-figure2", runSearchScenario()});

  header("Allocation report: one end-to-end search");
  std::printf("%-28s %12s %14s\n", "scenario", "allocs", "peak bytes");
  rule();
  for (const AllocScenario &Row : Rows)
    std::printf("%-28s %12llu %14llu\n", Row.Name,
                (unsigned long long)Row.R.Allocs,
                (unsigned long long)Row.R.PeakBytes);
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
                   "    {\"name\": \"%s\", \"allocs\": %llu, "
                   "\"peak_bytes\": %llu}%s\n",
                   Rows[I].Name, (unsigned long long)Rows[I].R.Allocs,
                   (unsigned long long)Rows[I].R.PeakBytes,
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
