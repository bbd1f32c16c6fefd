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
/// ledger() splits logicalCalls() by the search layer that asked
/// (TraceLayerScope), with the accepted answers per layer. It is kept on
/// every call, traced or not: the one per-layer count a report carries.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_ORACLE_H
#define SEMINAL_CORE_ORACLE_H

#include "minicaml/Ast.h"
#include "minicaml/Infer.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstddef>
#include <optional>
#include <string>

namespace seminal {

class Metrics;

namespace caml {
/// Empty; perfbench still constructs one (ROADMAP item 5).
class AstArena {};
} // namespace caml

/// Former toggles of the oracle acceleration layer, all ignored:
/// CheckpointedOracle has one path, and CamlOracle is the unaccelerated
/// reference. perfbench still sets them (ROADMAP item 7).
struct OracleAccelOptions {
  bool Checkpoint = true;
  bool VerdictCache = true;
  bool Arena = true;
};

/// Black-box type-check oracle over mini-Caml programs.
class Oracle {
public:
  virtual ~Oracle();

  /// Attaches a trace sink (may be null, not owned). With none -- the
  /// default -- every query takes the untraced fast path: one pointer
  /// test of overhead. The second parameter is ignored; perfbench still
  /// passes it (ROADMAP item 5).
  void setInstrumentation(TraceSink *Trace, Metrics * = nullptr) {
    TraceOut = Trace;
  }

  /// \returns true if \p Prog type-checks. Counts one logical call.
  bool typechecks(const caml::Program &Prog) {
    ++LogicalCalls;
    LayerCalls &Layer = Ledger[traceCurrentLayer()];
    ++Layer.Calls;
    bool Verdict = TraceOut ? typechecksTraced(Prog) : typecheckImpl(Prog);
    Layer.Accepted += Verdict;
    return Verdict;
  }

  /// Type-checks \p Prog and, on success, reports the rendered type of
  /// \p Node (which must be a node inside \p Prog). Used only to decorate
  /// messages ("of type int -> int -> int"); the search itself never
  /// consumes type information. Counts one logical call.
  std::optional<std::string> typeOfNode(const caml::Program &Prog,
                                        const caml::Expr *Node) {
    ++LogicalCalls;
    LayerCalls &Layer = Ledger[traceCurrentLayer()];
    ++Layer.Calls;
    std::optional<std::string> Type = TraceOut
                                          ? typeOfNodeTraced(Prog, Node)
                                          : typeOfNodeImpl(Prog, Node);
    Layer.Accepted += Type.has_value();
    return Type;
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

  /// logicalCalls() by the search layer that asked, with accepts.
  const CallLedger &ledger() const { return Ledger; }

  /// Work performed: inference executions. Plain oracles run inference
  /// once per question; accelerated oracles override this.
  virtual size_t inferenceRuns() const { return LogicalCalls; }

  /// How the calls were answered: inference runs by kind, answers that
  /// needed none, types allocated (support/Stats.h). All zero for an
  /// oracle that keeps no such count.
  const AccelCounters &counters() const { return Counters; }
  void resetCounters() { Counters.reset(); }

  /// Zeroes logicalCalls() and the ledger.
  void resetCallCount() {
    LogicalCalls = 0;
    Ledger = CallLedger();
  }

protected:
  virtual bool typecheckImpl(const caml::Program &Prog) = 0;
  virtual std::optional<std::string>
  typeOfNodeImpl(const caml::Program &Prog, const caml::Expr *Node) = 0;

  // Tracing support ---------------------------------------------------------
  // Implementations describe how they served the *current* call by
  // setting these before returning; the traced wrappers stamp them onto
  // the call's span. Plain oracles leave the defaults.
  /// Which acceleration layer answered ("full-inference",
  /// "checkpoint-incremental", "known-prefix").
  const char *LastServedBy = "full-inference";
  /// True when the verdict needed no inference.
  bool LastCacheHit = false;
  /// Prefix declarations an incremental run did not re-infer; -1 when
  /// the call was not served incrementally.
  int64_t LastReuseDepth = -1;

  TraceSink *TraceOut = nullptr;
  AccelCounters Counters;

private:
  bool typechecksTraced(const caml::Program &Prog);
  std::optional<std::string> typeOfNodeTraced(const caml::Program &Prog,
                                              const caml::Expr *Node);

  size_t LogicalCalls = 0;
  CallLedger Ledger;
};

/// The plain oracle: mini-Caml Hindley-Milner inference, one full
/// program inference per question. The unaccelerated reference that
/// CheckpointedOracle must reproduce.
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
