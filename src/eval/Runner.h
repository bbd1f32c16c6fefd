//===- Runner.h - Corpus evaluation driver ----------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the three message producers over every analyzed corpus file --
/// conventional checker, SEMINAL, SEMINAL with triage disabled -- judges
/// each, buckets the file (Figure 5), and optionally times the tool under
/// the three configurations of Figure 7 (full; the expensive nested-match
/// reparenthesizing change disabled; triage disabled).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_EVAL_RUNNER_H
#define SEMINAL_EVAL_RUNNER_H

#include "corpus/Generator.h"
#include "eval/Categories.h"

#include <map>
#include <vector>

namespace seminal {

/// One evaluated file. The effort counters (oracle calls, inference
/// runs, acceleration counters, per-configuration wall-clock) are always
/// recorded -- they are free byproducts of runs the evaluation performs
/// anyway -- so telemetry consumers never see zero-filled fields;
/// MeasureTimes only adds the extra no-reparen timing run of Figure 7.
struct FileOutcome {
  int Programmer = 0;
  int Assignment = 0;
  Quality Checker = Quality::Poor;
  Quality Ours = Quality::Poor;
  Quality OursNoTriage = Quality::Poor;
  Category Bucket = Category::TieNoTriage;

  size_t OracleCallsFull = 0;
  size_t OracleCallsNoTriage = 0;
  size_t InferenceRunsFull = 0;
  /// Acceleration-layer counters of the full-configuration run.
  AccelCounters Accel;
  double FullSeconds = 0;
  double NoReparenSeconds = 0; ///< Perf-bug change disabled.
  double NoTriageSeconds = 0;

  /// Per-run telemetry record for the full-configuration run, populated
  /// when EvalOptions::BuildReports is set (identity, quality and effort
  /// sections all filled; see obs/RunReport.h).
  obs::RunReport Report;
};

/// Evaluation-wide knobs.
struct EvalOptions {
  /// Also measure wall-clock for the three Figure 7 configurations.
  bool MeasureTimes = false;

  /// Build a full obs::RunReport per file from the main run.
  bool BuildReports = false;

  /// Run the main configuration with triage disabled -- the synthetic
  /// quality-regression knob the telemetry CI gate is tested against.
  /// The "ours" judgment and the bucket then reflect the degraded
  /// configuration.
  bool DisableTriage = false;
};

struct EvalResults {
  std::vector<FileOutcome> Files;

  CategoryCounts totals() const;
  std::map<int, CategoryCounts> byProgrammer() const;
  std::map<int, CategoryCounts> byAssignment() const;
};

/// Evaluates every analyzed file of \p TheCorpus.
EvalResults runEvaluation(const Corpus &TheCorpus,
                          const EvalOptions &Opts = {});

/// Evaluates a single file (exposed for tests).
FileOutcome evaluateFile(const CorpusFile &File, const EvalOptions &Opts);

} // namespace seminal

#endif // SEMINAL_EVAL_RUNNER_H
