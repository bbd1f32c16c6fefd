//===- Runner.cpp - Corpus evaluation driver -------------------------------==//

#include "eval/Runner.h"

#include "core/Oracle.h"
#include "minicaml/Hash.h"
#include "minicaml/Parser.h"

#include <cassert>
#include <chrono>

using namespace seminal;
using namespace seminal::caml;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// Runs SEMINAL under \p Opts and reports wall-clock seconds.
double timeRun(const std::string &Source, const SeminalOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  SeminalReport R = runSeminalOnSource(Source, Opts);
  (void)R;
  return secondsSince(Start);
}

} // namespace

FileOutcome seminal::evaluateFile(const CorpusFile &File,
                                  const EvalOptions &Opts) {
  FileOutcome Out;
  Out.Programmer = File.Programmer;
  Out.Assignment = File.Assignment;

  ParseResult PR = parseProgram(File.Source);
  assert(PR.ok() && "corpus files are printed ASTs; they must parse");
  Program Prog = std::move(*PR.Prog);

  // Conventional checker.
  CamlOracle O;
  auto CheckerError = O.conventionalError(Prog);
  Out.Checker = judgeChecker(Prog, CheckerError, File.Truths);

  // SEMINAL, main configuration (full, unless the synthetic-regression
  // knob degrades it by disabling triage).
  SeminalOptions Full;
  Full.Search.EnableTriage = !Opts.DisableTriage;
  auto Start = std::chrono::steady_clock::now();
  SeminalReport RFull = runSeminal(Prog, Full);
  Out.FullSeconds = secondsSince(Start);
  Out.OracleCallsFull = RFull.OracleCalls;
  Out.InferenceRunsFull = RFull.InferenceRuns;
  Out.Accel = RFull.Accel;
  Out.Ours = judgeSeminal(RFull, File.Truths);

  // SEMINAL without triage.
  SeminalOptions NoTriage;
  NoTriage.Search.EnableTriage = false;
  Start = std::chrono::steady_clock::now();
  SeminalReport RNoTriage = runSeminal(Prog, NoTriage);
  Out.NoTriageSeconds = secondsSince(Start);
  Out.OracleCallsNoTriage = RNoTriage.OracleCalls;
  Out.OursNoTriage = judgeSeminal(RNoTriage, File.Truths);

  Out.Bucket = categorize(Out.Checker, Out.Ours, Out.OursNoTriage);

  if (Opts.MeasureTimes) {
    SeminalOptions NoReparen;
    NoReparen.Search.Enum.EnableMatchReparen = false;
    Out.NoReparenSeconds = timeRun(File.Source, NoReparen);
  }

  if (Opts.BuildReports) {
    obs::RunReport &R = Out.Report;
    R.ProgramId = "p" + std::to_string(File.Programmer) + "/a" +
                  std::to_string(File.Assignment) + "/c" +
                  std::to_string(File.ClassId);
    R.Programmer = File.Programmer;
    R.Assignment = File.Assignment;
    R.ClassId = File.ClassId;
    R.SourceHash = hashProgram(Prog);
    for (const GroundTruth &T : File.Truths)
      R.MutationKinds.push_back(mutationKindName(T.Kind));
    fillRunReport(R, RFull, Out.FullSeconds);
    R.QualityChecker = qualityName(Out.Checker);
    R.QualityOurs = qualityName(Out.Ours);
    R.QualityNoTriage = qualityName(Out.OursNoTriage);
    R.Bucket = int(Out.Bucket);
    R.RankOfTrueFix = rankOfTrueFix(RFull, File.Truths);
  }
  return Out;
}

EvalResults seminal::runEvaluation(const Corpus &TheCorpus,
                                   const EvalOptions &Opts) {
  EvalResults Results;
  for (const CorpusFile &File : TheCorpus.Analyzed)
    Results.Files.push_back(evaluateFile(File, Opts));
  return Results;
}

CategoryCounts EvalResults::totals() const {
  CategoryCounts C;
  for (const auto &F : Files)
    C.add(F.Bucket, F.Checker == Quality::Poor && F.Ours == Quality::Poor);
  return C;
}

std::map<int, CategoryCounts> EvalResults::byProgrammer() const {
  std::map<int, CategoryCounts> M;
  for (const auto &F : Files)
    M[F.Programmer].add(F.Bucket,
                        F.Checker == Quality::Poor && F.Ours == Quality::Poor);
  return M;
}

std::map<int, CategoryCounts> EvalResults::byAssignment() const {
  std::map<int, CategoryCounts> M;
  for (const auto &F : Files)
    M[F.Assignment].add(F.Bucket,
                        F.Checker == Quality::Poor && F.Ours == Quality::Poor);
  return M;
}
