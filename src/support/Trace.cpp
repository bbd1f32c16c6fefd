//===- Trace.cpp - Structured search-trace spans and exporters -------------==//

#include "support/Trace.h"

#include "support/Profiler.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <sstream>

using namespace seminal;

//===----------------------------------------------------------------------===//
// Span kinds and thread-local state
//===----------------------------------------------------------------------===//

const char *seminal::spanKindName(SpanKind K) {
  switch (K) {
  case SpanKind::Search:
    return "search";
  case SpanKind::Localize:
    return "localize";
  case SpanKind::DeclChanges:
    return "decl-changes";
  case SpanKind::NodeVisit:
    return "node-visit";
  case SpanKind::Candidate:
    return "candidate";
  case SpanKind::OracleCall:
    return "oracle-call";
  case SpanKind::Triage:
    return "triage";
  case SpanKind::TriagePhase:
    return "triage-phase";
  case SpanKind::PatternFix:
    return "pattern-fix";
  case SpanKind::Slice:
    return "slice";
  case SpanKind::Rank:
    return "rank";
  case SpanKind::CcSearch:
    return "cc-search";
  case SpanKind::Other:
    return "other";
  }
  return "other";
}

const char *seminal::searchLayerName(SearchLayer L) {
  static constexpr const char *Names[] = {
      "unattributed", "initial-check", "localize",     "decl-change",
      "removal",      "adaptation",    "constructive", "triage",
      "pattern-fix",  "type-query",    "hoist"};
  static_assert(std::size(Names) == NumSearchLayers, "one name per layer");
  return Names[size_t(L)];
}

uint64_t CallLedger::calls() const {
  uint64_t N = 0;
  for (const LayerCalls &L : Slots)
    N += L.Calls;
  return N;
}

namespace {

thread_local TraceSpan *CurrentSpan = nullptr;

} // namespace

const TraceAttr *TraceEvent::attr(const char *Key) const {
  for (const TraceAttr &A : Attrs)
    if (A.Key == Key)
      return &A;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// TraceSink
//===----------------------------------------------------------------------===//

TraceSink::TraceSink() : Epoch(std::chrono::steady_clock::now()) {}

uint64_t TraceSink::nowNs() const {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - Epoch)
                      .count());
}

uint64_t TraceSink::nextId() {
  sync::MutexLock Lock(Mutex);
  return NextSpanId++;
}

uint32_t TraceSink::threadId() {
  sync::MutexLock Lock(Mutex);
  auto It = ThreadIds.find(std::this_thread::get_id());
  if (It != ThreadIds.end())
    return It->second;
  uint32_t Id = uint32_t(ThreadIds.size());
  ThreadIds.emplace(std::this_thread::get_id(), Id);
  return Id;
}

void TraceSink::record(TraceEvent E) {
  sync::MutexLock Lock(Mutex);
  E.Seq = NextSeq++;
  Events.push_back(std::move(E));
}

size_t TraceSink::eventCount() const {
  sync::MutexLock Lock(Mutex);
  return Events.size();
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  sync::MutexLock Lock(Mutex);
  return Events;
}

void TraceSink::clear() {
  sync::MutexLock Lock(Mutex);
  Events.clear();
}

//===----------------------------------------------------------------------===//
// TraceSpan
//===----------------------------------------------------------------------===//

TraceSpan::TraceSpan(TraceSink *Sink, SpanKind Kind, const char *Name)
    : Sink(Sink) {
  // Profiler mirror first: it works with or without a sink, and with
  // profiling off this is one relaxed load and branch.
  if (prof::enabled())
    ProfToken = prof::spanEnter(Kind, Name);
  if (!Sink)
    return;
  Event.Id = Sink->nextId();
  Event.Kind = Kind;
  Event.Name = Name;
  Event.StartNs = Sink->nowNs();
  Event.ThreadId = Sink->threadId();
  PrevTop = CurrentSpan;
  if (PrevTop)
    Event.Parent = PrevTop->Event.Id;
  CurrentSpan = this;
}

void TraceSpan::attr(const char *Key, const std::string &Value) {
  if (!Sink)
    return;
  TraceAttr A;
  A.Key = Key;
  A.T = TraceAttr::Type::String;
  A.Str = Value;
  Event.Attrs.push_back(std::move(A));
}

void TraceSpan::attr(const char *Key, const char *Value) {
  if (!Sink)
    return;
  attr(Key, std::string(Value));
}

void TraceSpan::attr(const char *Key, int64_t Value) {
  if (!Sink)
    return;
  TraceAttr A;
  A.Key = Key;
  A.T = TraceAttr::Type::Int;
  A.Int = Value;
  Event.Attrs.push_back(std::move(A));
}

void TraceSpan::attr(const char *Key, bool Value) {
  if (!Sink)
    return;
  TraceAttr A;
  A.Key = Key;
  A.T = TraceAttr::Type::Bool;
  A.Flag = Value;
  Event.Attrs.push_back(std::move(A));
}

void TraceSpan::attr(const char *Key, double Value) {
  if (!Sink)
    return;
  TraceAttr A;
  A.Key = Key;
  A.T = TraceAttr::Type::Double;
  A.Dbl = Value;
  Event.Attrs.push_back(std::move(A));
}

void TraceSpan::finish() {
  if (ProfToken) {
    prof::spanExit(ProfToken);
    ProfToken = 0;
  }
  if (!Sink)
    return;
  Event.DurNs = Sink->nowNs() - Event.StartNs;
  // Pop the thread-local stack only if this span is still the top: an
  // explicit early finish() can end spans out of order, and that must
  // not corrupt the stack.
  if (CurrentSpan == this)
    CurrentSpan = PrevTop;
  Sink->record(std::move(Event));
  Sink = nullptr;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

std::string seminal::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += char(C);
      }
    }
  }
  return Out;
}

namespace {

void writeAttrValue(std::ostream &OS, const TraceAttr &A) {
  switch (A.T) {
  case TraceAttr::Type::String:
    OS << '"' << jsonEscape(A.Str) << '"';
    break;
  case TraceAttr::Type::Int:
    OS << A.Int;
    break;
  case TraceAttr::Type::Bool:
    OS << (A.Flag ? "true" : "false");
    break;
  case TraceAttr::Type::Double: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6g", A.Dbl);
    OS << Buf;
    break;
  }
  }
}

void writeAttrs(std::ostream &OS, const TraceEvent &E) {
  bool First = true;
  for (const TraceAttr &A : E.Attrs) {
    if (!First)
      OS << ',';
    First = false;
    OS << '"' << jsonEscape(A.Key) << "\":";
    writeAttrValue(OS, A);
  }
}

} // namespace

void TraceSink::writeChromeTrace(std::ostream &OS) const {
  std::vector<TraceEvent> Copy = snapshot();
  OS << "{\"traceEvents\":[\n";
  bool First = true;
  for (const TraceEvent &E : Copy) {
    if (!First)
      OS << ",\n";
    First = false;
    char Head[192];
    // Chrome/Perfetto expect microsecond timestamps; fractional us keep
    // the nanosecond resolution.
    std::snprintf(Head, sizeof(Head),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{",
                  jsonEscape(E.Name).c_str(), spanKindName(E.Kind),
                  double(E.StartNs) / 1000.0, double(E.DurNs) / 1000.0,
                  E.ThreadId);
    OS << Head;
    OS << "\"span_id\":" << E.Id << ",\"parent_id\":" << E.Parent;
    if (!E.Attrs.empty()) {
      OS << ',';
      writeAttrs(OS, E);
    }
    OS << "}}";
  }
  OS << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void TraceSink::writeJsonl(std::ostream &OS) const {
  std::vector<TraceEvent> Copy = snapshot();
  for (const TraceEvent &E : Copy) {
    OS << "{\"seq\":" << E.Seq << ",\"id\":" << E.Id << ",\"parent\":"
       << E.Parent << ",\"kind\":\"" << spanKindName(E.Kind) << "\",\"name\":\""
       << jsonEscape(E.Name) << "\",\"start_ns\":" << E.StartNs
       << ",\"dur_ns\":" << E.DurNs << ",\"tid\":" << E.ThreadId
       << ",\"attrs\":{";
    writeAttrs(OS, E);
    OS << "}}\n";
  }
}

//===----------------------------------------------------------------------===//
// Summary
//===----------------------------------------------------------------------===//

TraceSummary TraceSink::summarize() const {
  std::vector<TraceEvent> Copy = snapshot();
  TraceSummary S;
  S.Spans = Copy.size();
  for (const TraceEvent &E : Copy) {
    ++S.SpansByKind[spanKindName(E.Kind)];
    if (E.Parent == 0)
      S.RootDurMs += double(E.DurNs) / 1e6;
    if (E.Kind != SpanKind::OracleCall)
      continue;
    ++S.OracleCallSpans;
    const TraceAttr *Hit = E.attr("cache_hit");
    if (Hit && Hit->T == TraceAttr::Type::Bool && Hit->Flag)
      ++S.CacheHits;
  }
  return S;
}

std::string TraceSummary::render() const {
  std::ostringstream OS;
  OS << "  spans: " << Spans << " (" << OracleCallSpans << " oracle calls, "
     << CacheHits << " served from a memo); "
     << "root wall " << RootDurMs << " ms\n";
  if (!SpansByKind.empty()) {
    OS << "  spans by kind:";
    for (const auto &KV : SpansByKind)
      OS << " " << KV.first << "=" << KV.second;
    OS << "\n";
  }
  return OS.str();
}
