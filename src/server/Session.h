//===- Session.h - One client's warm search state ---------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Session is the unit of warm-state reuse in the search daemon: one
/// long-lived CheckpointedOracle in session-retention mode and the
/// previous check's answer. Requests from the same editor hit the same
/// Session, so an edit-resubmit re-adopts the previous request's prefix
/// checkpoint instead of re-inferring from scratch (CheckpointedOracle.h's
/// server-mode notes), and a resubmit of the very same bytes under the
/// same limits replays the previous answer without searching at all.
///
/// Scoping rules (DESIGN.md section 13): AccelCounters are per-request
/// -- runSeminalWithOracle resets them at entry, and the server's ops
/// registry, not the Session, sums them; the retained state is
/// per-session and persists across requests until the eviction
/// watermark. A Session is single-threaded by construction: the server
/// pins it to one ThreadPool shard and its requests run FIFO there, so
/// no member needs a lock.
///
/// Eviction: the oracle keeps one request's state (a prefix checkpoint,
/// its declarations, the conventional memo's source), but a checkpoint's
/// types can be far larger than its source. When the bytes it retains
/// (CheckpointedOracle::retainedBytes) cross SessionConfig::ArenaEvictBytes
/// after a request, the Session drops that state. The next request on
/// the session runs cold; correctness is unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SERVER_SESSION_H
#define SEMINAL_SERVER_SESSION_H

#include "core/Seminal.h"
#include "obs/SlowTraceRing.h"
#include "support/Stats.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace seminal {
namespace server {

/// Configuration shared by every session of one server.
struct SessionConfig {
  /// Oracle acceleration for the long-lived oracle. Server concurrency
  /// comes from sharding sessions across workers, not from the oracle.
  OracleAccelOptions Accel;

  /// Baseline run options; per-request limits override copies of this.
  SeminalOptions Base;

  /// Eviction watermark in retained bytes (see file comment).
  uint64_t ArenaEvictBytes = 64ull << 20;

  /// Tail-sampled slow-request tracing (DESIGN.md section 14): when
  /// TraceSlowMs is non-negative and SlowTraces is set, every check
  /// records a trace and requests slower than the threshold export it
  /// into the ring. Negative = tracing off (the default; checks run
  /// with a null sink exactly as before).
  double TraceSlowMs = -1.0;
  obs::SlowTraceRing *SlowTraces = nullptr;
};

/// Per-request options (zero/false = inherit the session default).
struct CheckOptions {
  size_t MaxSuggestions = 0;
  size_t MaxOracleCalls = 0;
  bool WantReport = false;
  /// Rendered request-id JSON text; names the slow-trace file.
  std::string RequestId;
};

/// Everything one check produced, pre-rendered so the response can be
/// written without keeping the request's Suggestion objects alive.
struct CheckOutcome {
  std::string SyntaxError; ///< Nonempty = the source failed to parse.
  bool InputTypechecks = false;
  int FailingDecl = -1;
  bool BudgetExhausted = false;
  std::string Conventional; ///< Rendered baseline checker message.

  struct RenderedSuggestion {
    int Rank = 0;
    std::string Kind;
    std::string Layer;
    std::string Description;
    std::string Path;
    std::string Message; ///< renderSuggestion() output.
  };
  std::vector<RenderedSuggestion> Suggestions;
  /// The members above as reply text (appendAnswerMembers), rendered
  /// once per search: the session renders the answer it remembers, and a
  /// replay shares the searched check's copy. Null in outcomes built
  /// elsewhere; renderCheckResponse renders those members itself.
  std::shared_ptr<const std::string> RenderedAnswer;

  // The request's cost ledger (DESIGN.md section 16) is these fields;
  // the reply's "cost" object and the engine's counters read them.
  uint64_t OracleCalls = 0;
  uint64_t InferenceRuns = 0;
  /// Per-request acceleration counters (includes the Session* warm-reuse
  /// fields that the protocol surfaces as "warm"). ArenaBytes is the
  /// session's retained level after the check, also when it ran no
  /// search.
  AccelCounters Accel;
  double WallSeconds = 0.0;
  /// Thread CPU the check consumed. Exact: the session runs confined to
  /// one shard worker, so a thread-CPU clock delta around the check is
  /// the request's CPU.
  uint64_t CpuNs = 0;
  /// WallSeconds in the ledger's unit.
  uint64_t wallNs() const { return uint64_t(WallSeconds * 1e9); }
  /// Compact RunReport JSON (empty unless CheckOptions::WantReport).
  std::string ReportJson;
  /// The eviction watermark was crossed and the session went cold.
  bool Evicted = false;
  /// Retained bytes after this request (post-eviction).
  uint64_t ArenaBytes = 0;
  /// File the slow-trace ring captured for this request ("" = not slow
  /// or tracing disabled).
  std::string SlowTracePath;
  /// The session's previous answer was served again: same bytes, same
  /// limits, no search (DESIGN.md section 13).
  bool Replayed = false;
};

/// Appends \p O's answer members as ',"k":v' reply text: "syntax_error"
/// alone, or "input_typechecks", "failing_decl", "budget_exhausted",
/// "conventional" and "suggestions".
void appendAnswerMembers(std::string &Out, const CheckOutcome &O);

class Session {
public:
  Session(std::string Name, const SessionConfig &Config);
  ~Session();

  const std::string &name() const { return Name; }

  /// Runs one request. Never throws; a syntax error is an outcome, not a
  /// failure, and leaves the warm state untouched. When \p Source and the
  /// limits in \p Opts equal the previous check's, the previous outcome
  /// is replayed (unless \p Opts asks for a report).
  CheckOutcome check(const std::string &Source, const CheckOptions &Opts);

  /// Drops all warm state (retained checkpoints, memos, the replayable
  /// answer). The session identity and its check count survive.
  void reset();

  /// Bytes the session's oracle retains right now.
  uint64_t arenaBytes() const;

  /// Checks served so far; names the RunReport ("session#N").
  uint64_t checks() const { return Checks; }

private:
  std::string Name;
  SessionConfig Config;
  std::unique_ptr<CheckpointedOracle> Oracle;

  /// The previous check, kept for replay. The key is the exact bytes and
  /// the per-request limits: a search is deterministic in its program
  /// and options, so an equal key has an equal answer. Outcome holds
  /// rendered strings only (its fields and its RenderedAnswer), so
  /// eviction keeps it.
  struct PreviousCheck {
    std::string Source;
    size_t MaxSuggestions = 0;
    size_t MaxOracleCalls = 0;
    CheckOutcome Outcome;
  };
  std::optional<PreviousCheck> Previous;

  uint64_t Checks = 0;
};

} // namespace server
} // namespace seminal

#endif // SEMINAL_SERVER_SESSION_H
