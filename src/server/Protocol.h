//===- Protocol.h - JSONL search-service protocol ---------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the search daemon (DESIGN.md section 13): one
/// JSON object per line in both directions, over stdin/stdout or a Unix
/// domain socket. Requests name a method and a session; responses echo
/// the request id and carry either a result or an error. A malformed
/// line yields an error *reply*, never a dropped connection -- editors
/// reconnect rarely and resubmit often, so the protocol treats every
/// line as independent and self-describing.
///
/// Methods:
///   check    {"method":"check","id":1,"session":"s","source":"...",
///             "max_suggestions":8,"max_oracle_calls":200000,
///             "report":true}
///   reset    drop a session's warm state (checkpoints, memos, last answer)
///   stats    server-wide rollup (requests, sessions, warm-reuse totals,
///            per-shard breakdown)
///   metrics  live ops snapshot from the OpsRegistry; default JSON,
///            {"format":"prometheus"} returns the text exposition as an
///            "exposition" string member
///   profile  capture a sampling-profiler window: {"seconds":N} (1-30,
///            default 1) blocks the submitting connection for the
///            window and returns the delta; default format "collapsed"
///            (flamegraph.pl text in a "collapsed" member),
///            {"format":"json"} embeds the snapshot object instead
///   ping     liveness probe
///   shutdown ask the daemon to exit after draining in-flight requests
///
/// Responses always contain "id" (echoed; null when unparseable) and
/// "ok". Adding response fields is allowed without a version bump, like
/// RunReport's schema rule; consumers must ignore unknown members.
///
/// Costs on the hot path: a request line is parsed once into a JSON
/// document whose decoded "source" is moved, not copied, into the
/// Request. A reply is appended into one string by the append* writers
/// below -- no string streams -- and a check's answer members are
/// rendered once per search and spliced into every reply that serves
/// them (Session.h's CheckOutcome::RenderedAnswer).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SERVER_PROTOCOL_H
#define SEMINAL_SERVER_PROTOCOL_H

#include "support/Json.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace seminal {
namespace server {

/// One parsed request line.
struct Request {
  enum class Method {
    Check,
    Reset,
    Stats,
    Metrics,
    Profile,
    Ping,
    Shutdown,
    Invalid
  };

  Method TheMethod = Method::Invalid;
  /// The request id re-rendered as JSON text ("1", "\"abc\"", "null"),
  /// echoed verbatim into the response so clients can correlate.
  std::string Id = "null";
  std::string Session = "default";
  std::string Source;
  /// 0 = use the server default.
  size_t MaxSuggestions = 0;
  size_t MaxOracleCalls = 0;
  /// Embed the full RunReport JSON in the check response.
  bool WantReport = false;
  /// "metrics": "" (JSON snapshot) or "prometheus".
  /// "profile": "" / "collapsed" (folded stacks) or "json".
  std::string Format;
  /// "profile" only: capture window, clamped to [1, 30] at parse time.
  unsigned ProfileSeconds = 1;
  /// Why the line failed to parse (set iff TheMethod == Invalid).
  std::string Error;
};

/// Parses one request line. Never throws; malformed input comes back as
/// Method::Invalid with Error set (and Id echoing whatever id could be
/// salvaged, so the client can still correlate the failure).
Request parseRequest(const std::string &Line);

/// Renders \p V back to compact JSON text (for echoing request ids).
std::string renderValue(const json::Value &V);

/// {"id":<id>,"ok":false,"error":<message>}
std::string errorResponse(const std::string &Id, const std::string &Message);

/// {"id":<id>,"ok":true} plus any extra members passed pre-rendered as
/// ',"k":v' text in \p ExtraMembers.
std::string okResponse(const std::string &Id,
                       const std::string &ExtraMembers = "");

// Reply writers: each appends one JSON value to \p Out. Numbers come out
// byte for byte as an ostream's default formatting writes them.
/// A string literal, quotes included (support/Trace.h's escaper).
void appendJsonString(std::string &Out, std::string_view S);
void appendJsonInt(std::string &Out, int64_t N);
void appendJsonUint(std::string &Out, uint64_t N);
/// "%g", which is what `ostream << double` writes by default.
void appendJsonDouble(std::string &Out, double D);
void appendJsonBool(std::string &Out, bool B);

} // namespace server
} // namespace seminal

#endif // SEMINAL_SERVER_PROTOCOL_H
