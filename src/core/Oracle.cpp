//===- Oracle.cpp - Type-check oracle implementations ----------------------==//

#include "core/Oracle.h"

#include <chrono>

using namespace seminal;
using namespace seminal::caml;

Oracle::~Oracle() = default;

//===----------------------------------------------------------------------===//
// Traced wrappers
//===----------------------------------------------------------------------===//
//
// Only reached when a trace sink or metrics collector is attached; the
// inline fast paths in Oracle.h bypass all of this with one branch.
// Each logical call gets exactly one OracleCall span carrying the search
// layer that issued it (TraceLayerScope), the verdict, the cache-hit
// flag, and which acceleration layer served it.

bool Oracle::typechecksTraced(const Program &Prog) {
  TraceSpan Span(TraceOut, SpanKind::OracleCall, "oracle.typecheck");
  LastServedBy = "full-inference";
  LastCacheHit = false;
  auto Start = std::chrono::steady_clock::now();
  bool Verdict = typecheckImpl(Prog);
  double Us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  if (Span.enabled()) {
    Span.attr("layer", traceCurrentLayer());
    Span.attr("verdict", Verdict);
    Span.attr("cache_hit", LastCacheHit);
    Span.attr("served_by", LastServedBy);
    Span.attr("decls", int64_t(Prog.Decls.size()));
  }
  if (MetricsOut)
    MetricsOut->observe(metric::OracleLatencyUs, Us);
  return Verdict;
}

std::optional<std::string> Oracle::typeOfNodeTraced(const Program &Prog,
                                                    const Expr *Node) {
  TraceSpan Span(TraceOut, SpanKind::OracleCall, "oracle.type_of_node");
  LastServedBy = "full-inference";
  LastCacheHit = false;
  auto Start = std::chrono::steady_clock::now();
  std::optional<std::string> Result = typeOfNodeImpl(Prog, Node);
  double Us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  if (Span.enabled()) {
    Span.attr("layer", traceCurrentLayer());
    Span.attr("verdict", Result.has_value());
    Span.attr("cache_hit", LastCacheHit);
    Span.attr("served_by", LastServedBy);
    if (Result)
      Span.attr("type", *Result);
  }
  if (MetricsOut)
    MetricsOut->observe(metric::OracleLatencyUs, Us);
  return Result;
}

bool CamlOracle::typecheckImpl(const Program &Prog) {
  return typecheckProgram(Prog).ok();
}

std::optional<std::string> CamlOracle::typeOfNodeImpl(const Program &Prog,
                                                      const Expr *Node) {
  TypecheckOptions Opts;
  Opts.QueryNode = Node;
  TypecheckResult R = typecheckProgram(Prog, Opts);
  if (!R.ok())
    return std::nullopt;
  return R.QueriedType;
}

std::optional<TypeError> CamlOracle::conventionalError(const Program &Prog) {
  return typecheckProgram(Prog).Error;
}
