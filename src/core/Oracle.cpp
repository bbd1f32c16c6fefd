//===- Oracle.cpp - Type-check oracle implementations ----------------------==//

#include "core/Oracle.h"

using namespace seminal;
using namespace seminal::caml;

Oracle::~Oracle() = default;

//===----------------------------------------------------------------------===//
// Traced wrappers
//===----------------------------------------------------------------------===//
//
// Only reached when a trace sink is attached; the inline fast paths in
// Oracle.h bypass all of this with one branch. Each logical call gets
// exactly one OracleCall span carrying the search layer that issued it
// (TraceLayerScope), the verdict, the cache-hit flag, which acceleration
// layer served it and, for an incremental run, how many prefix
// declarations it reused.

namespace {

/// The attributes every oracle-call span carries.
void stampCall(TraceSpan &Span, bool Verdict, bool CacheHit,
               const char *ServedBy, int64_t ReuseDepth) {
  Span.attr("layer", searchLayerName(traceCurrentLayer()));
  Span.attr("verdict", Verdict);
  Span.attr("cache_hit", CacheHit);
  Span.attr("served_by", ServedBy);
  if (ReuseDepth >= 0)
    Span.attr("reuse_depth", ReuseDepth);
}

} // namespace

bool Oracle::typechecksTraced(const Program &Prog) {
  TraceSpan Span(TraceOut, SpanKind::OracleCall, "oracle.typecheck");
  LastServedBy = "full-inference";
  LastCacheHit = false;
  LastReuseDepth = -1;
  bool Verdict = typecheckImpl(Prog);
  stampCall(Span, Verdict, LastCacheHit, LastServedBy, LastReuseDepth);
  Span.attr("decls", int64_t(Prog.Decls.size()));
  return Verdict;
}

std::optional<std::string> Oracle::typeOfNodeTraced(const Program &Prog,
                                                    const Expr *Node) {
  TraceSpan Span(TraceOut, SpanKind::OracleCall, "oracle.type_of_node");
  LastServedBy = "full-inference";
  LastCacheHit = false;
  LastReuseDepth = -1;
  std::optional<std::string> Result = typeOfNodeImpl(Prog, Node);
  stampCall(Span, Result.has_value(), LastCacheHit, LastServedBy,
            LastReuseDepth);
  if (Result)
    Span.attr("type", *Result);
  return Result;
}

bool CamlOracle::typecheckImpl(const Program &Prog) {
  TypecheckResult R = typecheckProgram(Prog);
  ++Counters.FullInferences;
  Counters.TypesAllocated += R.TypesAllocated;
  return R.ok();
}

std::optional<std::string> CamlOracle::typeOfNodeImpl(const Program &Prog,
                                                      const Expr *Node) {
  TypecheckOptions Opts;
  Opts.QueryNode = Node;
  TypecheckResult R = typecheckProgram(Prog, Opts);
  ++Counters.FullInferences;
  Counters.TypesAllocated += R.TypesAllocated;
  if (!R.ok())
    return std::nullopt;
  return R.QueriedType;
}

std::optional<TypeError> CamlOracle::conventionalError(const Program &Prog) {
  return typecheckProgram(Prog).Error;
}
