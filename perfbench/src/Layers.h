//===- Layers.h - Per-layer timing from outside the program -----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instrument. It replays runSeminalWithOracle's
/// sequence from public calls -- parseProgram, conventionalError,
/// Searcher::run over a forwarding Oracle wrapped around the production
/// CheckpointedOracle, rankSuggestions, rendering -- and times each call
/// from the benchmark's side of the boundary. Nothing inside the program
/// is instrumented; the program's own trace sinks stay detached.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "core/CheckpointedOracle.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

/// Per-layer totals over the checks of one traced run.
struct LayerTotals {
  uint64_t Checks = 0;

  // Wall time, nanoseconds.
  uint64_t ParseNs = 0;
  uint64_t ConventionalNs = 0;
  uint64_t SearchNs = 0; ///< Searcher::run, oracle calls included.
  uint64_t LocalizeNs = 0;
  uint64_t SearchOracleNs = 0;
  uint64_t TypeOfNodeNs = 0;
  uint64_t RankNs = 0;
  uint64_t RenderNs = 0;
  /// Building the per-file oracle, and releasing the program, the
  /// suggestions and the oracle after rendering.
  uint64_t LifecycleNs = 0;

  // Oracle questions by phase, and the oracle's own counters.
  uint64_t LocalizeCalls = 0;
  uint64_t SearchCalls = 0;
  uint64_t TypeOfNodeCalls = 0;
  uint64_t LogicalCalls = 0;
  uint64_t InferenceRuns = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t TypesAllocated = 0;
  /// Duration of every search-phase typechecks() call.
  std::vector<uint32_t> SearchCallNs;

  /// Searcher::run minus every oracle call it made.
  uint64_t searchSelfNs() const {
    uint64_t Oracle = LocalizeNs + SearchOracleNs + TypeOfNodeNs;
    return SearchNs > Oracle ? SearchNs - Oracle : 0;
  }
};

/// Forwards every question to a CheckpointedOracle and times it. Calls
/// before seedPrefix() are localization (the initial whole-program check
/// and the prefix walk); calls after it are the search proper, and
/// seedPrefix()/clearPrefix() themselves are billed to the search.
class TimingOracle final : public seminal::Oracle {
public:
  TimingOracle(seminal::CheckpointedOracle &Inner, LayerTotals &Totals)
      : Inner(Inner), Totals(Totals) {}

  std::optional<seminal::caml::TypeError>
  conventionalError(const seminal::caml::Program &Prog) override {
    return Inner.conventionalError(Prog);
  }
  void seedPrefix(const seminal::caml::Program &Prog,
                  unsigned EditedDecl) override;
  void clearPrefix() override;
  size_t inferenceRuns() const override { return Inner.inferenceRuns(); }

protected:
  bool typecheckImpl(const seminal::caml::Program &Prog) override;
  std::optional<std::string>
  typeOfNodeImpl(const seminal::caml::Program &Prog,
                 const seminal::caml::Expr *Node) override;

private:
  seminal::CheckpointedOracle &Inner;
  LayerTotals &Totals;
  bool Seeded = false;
};

/// One check, timed layer by layer against \p Inner. With
/// \p SessionMetrics set, \p Inner is a long-lived session-retention
/// oracle and the sequence is Session::check's: the source is announced
/// with primeConventional first, and the session's Metrics sink is
/// attached to the oracle and the search as the daemon attaches it.
/// \returns the canonical output (Logic.h).
std::string tracedCheck(seminal::CheckpointedOracle &Inner,
                        const std::string &Source,
                        seminal::Metrics *SessionMetrics,
                        LayerTotals &Totals);

/// One one-shot check, as runSeminalOnSource makes it: a fresh oracle
/// per file, whose construction and release are billed to LifecycleNs.
std::string tracedOneShot(const std::string &Source, LayerTotals &Totals);

/// The daemon's per-session oracle configuration (server/Session.cpp).
std::unique_ptr<seminal::CheckpointedOracle> makeSessionOracle();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
