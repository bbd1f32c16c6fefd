//===- Oracle.h - The type-checker as a black-box oracle --------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central architectural idea of the paper (Figure 1): the searcher
/// never looks inside the type-checker; it only asks "does this modified
/// program type-check?". This interface is that boundary. The production
/// implementation wraps mini-Caml inference; tests substitute mocks to
/// exercise the searcher against adversarial oracles.
///
/// Accounting distinguishes two quantities the paper's Section 3.2 metrics
/// conflate once caching enters the picture:
///
///   * logicalCalls() -- how many questions the search asked. This is the
///     paper-comparable search-effort metric and the budget currency; it
///     grows on every typechecks()/typeOfNode() regardless of how the
///     answer was produced.
///   * inferenceRuns() -- how many times inference actually executed.
///     Acceleration layers (core/CheckpointedOracle.h) drive this far
///     below logicalCalls(); for plain oracles the two coincide.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_ORACLE_H
#define SEMINAL_CORE_ORACLE_H

#include "minicaml/Ast.h"
#include "minicaml/Infer.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstddef>
#include <optional>
#include <string>

namespace seminal {

/// Toggles for the oracle acceleration layer. Lives here (not in the
/// accelerated oracle's header) so SearchOptions can embed it and the
/// ablation benches can switch each layer independently.
struct OracleAccelOptions {
  /// Reuse a typing-environment snapshot of the unedited declaration
  /// prefix instead of re-inferring it on every call.
  bool Checkpoint = true;

  /// Memoize the conventionalError() verdict so the searcher's opening
  /// whole-program probe (and a final localization round that asks about
  /// the same program) is answered without inference. Candidate verdicts
  /// are not memoized: keying them cost more than the inference it saved
  /// (DESIGN.md section 7). The memo itself does not measurably pay
  /// either: over the seed-20070611 corpus at scale 0.5 (41 interleaved
  /// rounds, RelWithDebInfo, 4-core Xeon) the checkpoint alone took a
  /// median 33.06 ms and checkpoint + memo 32.81 ms, both within the
  /// other's interquartile range. It stays because a daemon session
  /// replays the opening probe through it.
  bool VerdictCache = true;

  /// Give the oracle a hash-consing arena (minicaml/Arena.h). Session
  /// retention keys its cross-request state on the prefix's interned
  /// declaration ids, and slice-guided search diffs candidates by id;
  /// one-shot searches intern nothing. Verdicts and logical-call counts
  /// are identical either way.
  bool Arena = true;
};

/// Black-box type-check oracle over mini-Caml programs.
class Oracle {
public:
  virtual ~Oracle();

  /// Attaches observability sinks (either may be null, neither is
  /// owned). With both null -- the default -- every query takes the
  /// untraced fast path: one pointer test of overhead.
  void setInstrumentation(TraceSink *Trace, Metrics *M) {
    TraceOut = Trace;
    MetricsOut = M;
  }
  TraceSink *traceSink() const { return TraceOut; }
  Metrics *metrics() const { return MetricsOut; }

  /// \returns true if \p Prog type-checks. Counts one logical call.
  bool typechecks(const caml::Program &Prog) {
    ++LogicalCalls;
    if (!TraceOut && !MetricsOut)
      return typecheckImpl(Prog);
    return typechecksTraced(Prog);
  }

  /// Type-checks \p Prog and, on success, reports the rendered type of
  /// \p Node (which must be a node inside \p Prog). Used only to decorate
  /// messages ("of type int -> int -> int"); the search itself never
  /// consumes type information. Counts one logical call.
  std::optional<std::string> typeOfNode(const caml::Program &Prog,
                                        const caml::Expr *Node) {
    ++LogicalCalls;
    if (!TraceOut && !MetricsOut)
      return typeOfNodeImpl(Prog, Node);
    return typeOfNodeTraced(Prog, Node);
  }

  /// Hints that until clearPrefix(), every queried program will consist of
  /// the first \p EditedDecl declarations of \p Prog unchanged plus one
  /// edited declaration at index \p EditedDecl. Accelerated oracles
  /// snapshot the prefix environment here; the default ignores the hint.
  /// The caller must not mutate the prefix declarations while seeded.
  virtual void seedPrefix(const caml::Program &Prog, unsigned EditedDecl) {}

  /// Drops the seedPrefix() hint (and any state keyed on it).
  virtual void clearPrefix() {}

  /// The conventional checker diagnostic for \p Prog (does not count as a
  /// search call; used to render the baseline message).
  virtual std::optional<caml::TypeError>
  conventionalError(const caml::Program &Prog) = 0;

  /// Search effort: every question asked (Section 3.2's metric).
  size_t logicalCalls() const { return LogicalCalls; }

  /// Work performed: inference executions. Plain oracles run inference
  /// once per question; accelerated oracles override this.
  virtual size_t inferenceRuns() const { return LogicalCalls; }

  /// Legacy alias for logicalCalls().
  size_t callCount() const { return LogicalCalls; }
  void resetCallCount() { LogicalCalls = 0; }

protected:
  virtual bool typecheckImpl(const caml::Program &Prog) = 0;
  virtual std::optional<std::string>
  typeOfNodeImpl(const caml::Program &Prog, const caml::Expr *Node) = 0;

  // Tracing support ---------------------------------------------------------
  // Implementations describe how they served the *current* call by
  // setting these before returning; the traced wrappers stamp them onto
  // the call's span. Plain oracles leave the defaults.
  /// Which acceleration layer answered ("full-inference", "conv-memo",
  /// "checkpoint-incremental", "growth-extend", "session-prefix").
  const char *LastServedBy = "full-inference";
  /// True when the verdict came from a memo rather than inference.
  bool LastCacheHit = false;

  TraceSink *TraceOut = nullptr;
  Metrics *MetricsOut = nullptr;

private:
  bool typechecksTraced(const caml::Program &Prog);
  std::optional<std::string> typeOfNodeTraced(const caml::Program &Prog,
                                              const caml::Expr *Node);

  size_t LogicalCalls = 0;
};

/// The production oracle: mini-Caml Hindley-Milner inference, one full
/// program inference per question.
class CamlOracle : public Oracle {
public:
  std::optional<caml::TypeError>
  conventionalError(const caml::Program &Prog) override;

protected:
  bool typecheckImpl(const caml::Program &Prog) override;
  std::optional<std::string> typeOfNodeImpl(const caml::Program &Prog,
                                            const caml::Expr *Node) override;
};

} // namespace seminal

#endif // SEMINAL_CORE_ORACLE_H
