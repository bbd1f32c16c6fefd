//===- Trace.h - Structured search-trace spans and exporters ----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search-trace subsystem: hierarchical spans recording where the
/// search spends its effort (search -> triage phase -> node visit ->
/// candidate -> oracle call), each carrying structured attributes (AST
/// span, change kind, enumerator layer, verdict, cache-hit flag,
/// wall-time). Two exporters read the recorded stream:
///
///   * writeChromeTrace() -- Chrome `trace_event` JSON, loadable in
///     about:tracing and Perfetto;
///   * writeJsonl() -- one JSON object per event, for machine diffing.
///
/// Design constraints (DESIGN.md section 8):
///
///   * Always compiled, near-zero overhead when disabled. Every
///     instrumentation site is a TraceSpan constructed with a possibly
///     null sink; with a null sink the constructor is a pointer test --
///     no clock read, no allocation, no locking -- and every attr() call
///     is a single branch.
///   * Tracing is observational only: suggestions, logical-call counts,
///     and ranking are byte-identical with tracing on or off (enforced
///     by tests/TraceTest.cpp).
///   * Thread-safe recording: the sink serializes spans under a mutex
///     and stamps a global sequence number, so exports are totally
///     ordered whichever thread recorded each span.
///
/// The per-layer call ledger (SearchLayer, CallLedger) lives here too:
/// TraceLayerScope names the layer on every search, traced or not, and
/// the oracle counts each call against it (core/Oracle.h).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SUPPORT_TRACE_H
#define SEMINAL_SUPPORT_TRACE_H

#include "support/Sync.h"

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace seminal {

/// Span taxonomy, mirroring the layers of the search procedure.
enum class SpanKind : uint8_t {
  Search,      ///< One full search run (root).
  Localize,    ///< Prefix-localization loop (Section 2.1).
  DeclChanges, ///< Declaration-header change family.
  NodeVisit,   ///< searchExpr at one AST node.
  Candidate,   ///< One enumerator candidate tested at a node.
  OracleCall,  ///< One logical oracle question.
  Triage,      ///< Triage entered at a node (Section 2.4).
  TriagePhase, ///< One phase of match triage / one focus iteration.
  PatternFix,  ///< Subpattern wildcard search.
  Slice,       ///< Provenance slice computation (analysis layer).
  Rank,        ///< Ranking the suggestion list.
  CcSearch,    ///< Mini-C++ secondary-oracle search (Section 4).
  Other,
};

/// Stable lowercase name for a span kind ("oracle-call", ...).
const char *spanKindName(SpanKind K);

/// One typed key/value attribute attached to a span.
struct TraceAttr {
  enum class Type : uint8_t { String, Int, Bool, Double };
  std::string Key;
  Type T = Type::String;
  std::string Str;
  int64_t Int = 0;
  bool Flag = false;
  double Dbl = 0.0;
};

/// One completed span. Events are recorded at span *end* (Chrome
/// "complete" events), which keeps recording to a single sink call.
struct TraceEvent {
  uint64_t Id = 0;     ///< Unique span id (never 0 for recorded spans).
  uint64_t Parent = 0; ///< Enclosing span id, 0 for roots.
  uint64_t Seq = 0;    ///< Global record order (assigned by the sink).
  SpanKind Kind = SpanKind::Other;
  std::string Name;
  uint64_t StartNs = 0; ///< Nanoseconds since the sink was created.
  uint64_t DurNs = 0;
  uint32_t ThreadId = 0; ///< Dense per-sink thread index (0 = first seen).
  std::vector<TraceAttr> Attrs;

  /// The first attribute named \p Key, or null.
  const TraceAttr *attr(const char *Key) const;
};

/// Aggregate view of one recorded trace (TraceSink::summarize, which
/// copies the event stream under the sink's mutex; seminal_cli prints
/// it).
struct TraceSummary {
  uint64_t Spans = 0;
  uint64_t OracleCallSpans = 0;
  uint64_t CacheHits = 0;
  /// All spans bucketed by kind name.
  std::map<std::string, uint64_t> SpansByKind;
  /// Wall-time of root spans (no recorded parent), milliseconds.
  double RootDurMs = 0.0;

  /// Multi-line human-readable rendering.
  std::string render() const;
};

/// Collects TraceEvents from any thread and exports them. One sink per
/// run (or per bench sweep); not owned by the components it observes.
class TraceSink {
public:
  TraceSink();

  /// Records one completed span. Thread-safe; assigns Seq.
  void record(TraceEvent E);

  /// Number of events recorded so far. Thread-safe.
  size_t eventCount() const;

  /// Copy of the event stream in record order. Thread-safe.
  std::vector<TraceEvent> snapshot() const;

  /// Drops all recorded events (ids keep growing; reuse between files).
  void clear();

  /// Monotonic timestamp in nanoseconds since construction.
  uint64_t nowNs() const;

  /// Allocates a fresh span id (thread-safe, never 0).
  uint64_t nextId();

  /// Dense id for the calling thread (0 = first thread seen).
  uint32_t threadId();

  /// Chrome trace_event JSON: {"traceEvents": [...]} with "X" (complete)
  /// phase events; timestamps in microseconds as Perfetto expects.
  void writeChromeTrace(std::ostream &OS) const;

  /// One JSON object per line, in record order.
  void writeJsonl(std::ostream &OS) const;

  /// Aggregates the recorded stream (see TraceSummary).
  TraceSummary summarize() const;

private:
  mutable sync::Mutex Mutex{sync::LockRank::Trace, "trace.sink"};
  std::vector<TraceEvent> Events SEMINAL_GUARDED_BY(Mutex);
  uint64_t NextSeq SEMINAL_GUARDED_BY(Mutex) = 1;
  uint64_t NextSpanId SEMINAL_GUARDED_BY(Mutex) = 1;
  std::map<std::thread::id, uint32_t> ThreadIds SEMINAL_GUARDED_BY(Mutex);
  /// Immutable after construction.
  std::chrono::steady_clock::time_point Epoch;
};

/// RAII span handle. With a null sink every member is an inert branch;
/// with a sink, the constructor stamps the start time and pushes the
/// span onto a thread-local stack so children pick up their parent
/// automatically.
class TraceSpan {
public:
  /// \p Name must outlive the span (string literals only).
  TraceSpan(TraceSink *Sink, SpanKind Kind, const char *Name);
  ~TraceSpan() { finish(); }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// True when attached to a sink; guard expensive attribute rendering.
  bool enabled() const { return Sink != nullptr; }

  /// This span's id (0 when disabled).
  uint64_t id() const { return Event.Id; }

  void attr(const char *Key, const std::string &Value);
  void attr(const char *Key, const char *Value);
  void attr(const char *Key, int64_t Value);
  void attr(const char *Key, uint64_t Value) { attr(Key, int64_t(Value)); }
  void attr(const char *Key, unsigned Value) { attr(Key, int64_t(Value)); }
  void attr(const char *Key, int Value) { attr(Key, int64_t(Value)); }
  void attr(const char *Key, bool Value);
  void attr(const char *Key, double Value);

  /// Stamps the duration and records the event; idempotent (the
  /// destructor calls it too).
  void finish();

private:
  TraceSink *Sink;
  TraceEvent Event;
  TraceSpan *PrevTop = nullptr;
  /// Profiler registration (support/Profiler.h); 0 when profiling was
  /// off at construction. Present even with a null sink: the profiler
  /// samples span stacks whether or not a trace is being recorded.
  uint32_t ProfToken = 0;
};

/// The search layer issuing oracle calls. The names (searchLayerName)
/// are the `layer` attribute of oracle-call spans and the keys of a
/// RunReport's effort.layers.
enum class SearchLayer : uint8_t {
  Unattributed, ///< No TraceLayerScope is live.
  InitialCheck, ///< The opening whole-program check (Figure 1).
  Localize,     ///< Prefix localization (Section 2.1).
  DeclChange,   ///< Declaration-header changes.
  Removal,      ///< Wildcard removal probes.
  Adaptation,   ///< Adaptation (Section 2.3).
  Constructive, ///< The enumerator's candidates (Section 2.2).
  Triage,       ///< Triage contexts (Section 2.4).
  PatternFix,   ///< Subpattern wildcarding in match triage.
  TypeQuery,    ///< The type of an installed replacement, for messages.
  Hoist,        ///< Mini-C++ call hoisting (Section 4).
};
inline constexpr size_t NumSearchLayers = size_t(SearchLayer::Hoist) + 1;

/// Stable lowercase name for a layer ("initial-check", "removal", ...).
const char *searchLayerName(SearchLayer L);

/// Logical oracle calls one search layer issued, and how many of them
/// the oracle accepted (a true verdict; for a type query, a type).
struct LayerCalls {
  uint64_t Calls = 0;
  uint64_t Accepted = 0;

  bool operator==(const LayerCalls &) const = default;
};

/// Per-layer call counts for one search, kept by the oracle on every
/// call (Oracle::ledger). A fixed array: counting allocates nothing.
struct CallLedger {
  std::array<LayerCalls, NumSearchLayers> Slots{};

  LayerCalls &operator[](SearchLayer L) { return Slots[size_t(L)]; }
  const LayerCalls &operator[](SearchLayer L) const {
    return Slots[size_t(L)];
  }

  /// Calls summed over every layer.
  uint64_t calls() const;

  bool operator==(const CallLedger &) const = default;
};

namespace trace_detail {
inline thread_local SearchLayer CurrentLayer = SearchLayer::Unattributed;
} // namespace trace_detail

/// Scoped thread-local label naming which search layer is issuing
/// oracle calls. The oracle counts every call against the current
/// layer and stamps its name onto the call's span, so each call is
/// attributable even when the caller is generic code. Setting a
/// thread_local is cheap enough to run unconditionally (no sink test).
class TraceLayerScope {
public:
  explicit TraceLayerScope(SearchLayer Layer)
      : Prev(trace_detail::CurrentLayer) {
    trace_detail::CurrentLayer = Layer;
  }
  ~TraceLayerScope() { trace_detail::CurrentLayer = Prev; }

  TraceLayerScope(const TraceLayerScope &) = delete;
  TraceLayerScope &operator=(const TraceLayerScope &) = delete;

private:
  SearchLayer Prev;
};

/// The calling thread's current layer (Unattributed when no
/// TraceLayerScope is live).
inline SearchLayer traceCurrentLayer() { return trace_detail::CurrentLayer; }

/// Appends \p S to \p Out escaped for a JSON string literal (quote,
/// backslash, newline, return and tab as two-character escapes, other
/// control bytes as \u00xx), copying each run of bytes that need no
/// escape in one call. The tree's one JSON string escaper.
void appendJsonEscaped(std::string &Out, std::string_view S);

/// appendJsonEscaped into a new string.
std::string jsonEscape(const std::string &S);

} // namespace seminal

#endif // SEMINAL_SUPPORT_TRACE_H
