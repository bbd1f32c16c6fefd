//===- Seminal.h - Public facade for the SEMINAL system ---------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call public API: feed it an ill-typed program (as source text
/// or a parsed AST) and get back a ranked list of suggestions plus the
/// conventional checker message for comparison. This wires together the
/// components of Figure 1: type-checker (oracle), changer (searcher +
/// enumerator), and ranker.
///
/// \code
///   seminal::SeminalReport R = seminal::runSeminalOnSource(Source);
///   if (!R.InputTypechecks)
///     std::cout << R.bestMessage() << "\n";
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_SEMINAL_H
#define SEMINAL_CORE_SEMINAL_H

#include "core/Change.h"
#include "core/Message.h"
#include "core/Searcher.h"
#include "minicaml/Infer.h"
#include "minicaml/Parser.h"
#include "obs/RunReport.h"
#include "support/Stats.h"

#include <optional>
#include <string>
#include <vector>

namespace seminal {

/// Configuration for one run of the full system.
struct SeminalOptions {
  SearchOptions Search;
  MessageOptions Message;
  /// Keep at most this many ranked suggestions in the report.
  size_t MaxSuggestions = 8;
};

/// Everything a run produces.
struct SeminalReport {
  /// The input parses? (Search requires a syntactically valid file.)
  std::optional<caml::ParseError> SyntaxError;

  /// The input already type-checks (the system is bypassed, Figure 1).
  bool InputTypechecks = false;

  /// The conventional checker diagnostic for the input (the baseline).
  std::optional<caml::TypeError> CheckerError;

  /// Index of the first failing top-level declaration.
  std::optional<unsigned> FailingDeclIndex;

  /// Ranked suggestions, best first.
  std::vector<Suggestion> Suggestions;

  /// Number of oracle invocations the search performed (logical calls --
  /// the paper-comparable search-effort metric, independent of the
  /// acceleration configuration).
  size_t OracleCalls = 0;

  /// Number of inference executions the oracle actually ran; acceleration
  /// drives this below OracleCalls (equal when acceleration is off).
  size_t InferenceRuns = 0;

  /// OracleCalls by the search layer that issued them, with the calls
  /// the oracle accepted (Oracle::ledger). Always filled; sums to
  /// OracleCalls.
  CallLedger Layers;

  /// Per-layer acceleration instrumentation for this run.
  AccelCounters Accel;

  /// True if the search stopped on its call budget.
  bool BudgetExhausted = false;

  /// The provenance error slice, when SearchOptions::ComputeSlice was
  /// set and the failure was sliceable.
  std::optional<analysis::ErrorSlice> Slice;

  /// The top-ranked suggestion rendered as a message, or a fallback.
  std::string bestMessage(const MessageOptions &Opts = {}) const;

  /// The conventional checker message (baseline presentation).
  std::string conventionalMessage() const;
};

/// Search layer credited with finding \p S ("constructive",
/// "adaptation", "removal", "pattern-fix", "decl-change").
const char *suggestionLayer(const Suggestion &S);

/// Copies one run's outcome, effort and slice sections from \p Report
/// into \p R (obs/RunReport.h). Identity and quality fields are the
/// caller's job (the corpus sweep knows the mutation ground truth; the
/// CLI knows the file name). \p WallSeconds stamps the run's measured
/// wall-clock.
void fillRunReport(obs::RunReport &R, const SeminalReport &Report,
                   double WallSeconds = 0.0);

/// Runs search-based error-message generation on a parsed program.
SeminalReport runSeminal(const caml::Program &Prog,
                         const SeminalOptions &Opts = {});

class CheckpointedOracle;

/// Runs one request against a caller-owned (typically long-lived) oracle.
/// This is the server entry point: the oracle keeps its retained
/// session checkpoint and conventional-error memo across calls, while
/// everything per-request is reset at entry -- the logical-call count and
/// ledger (so SearchOptions::MaxOracleCalls budgets each request, not the
/// session) and the AccelCounters (so SeminalReport::Accel describes this
/// request only; accumulate across requests caller-side). Suggestions and
/// verdicts are bit-identical to a one-shot runSeminal with the same
/// options; Opts.Search.Accel is ignored here (the oracle was built with
/// its own acceleration configuration).
SeminalReport runSeminalWithOracle(CheckpointedOracle &TheOracle,
                                   const caml::Program &Prog,
                                   const SeminalOptions &Opts = {});

/// Convenience: parse then run.
SeminalReport runSeminalOnSource(const std::string &Source,
                                 const SeminalOptions &Opts = {});

} // namespace seminal

#endif // SEMINAL_CORE_SEMINAL_H
