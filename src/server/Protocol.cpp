//===- Protocol.cpp - JSONL search-service protocol -------------------------==//

#include "server/Protocol.h"

#include "support/Trace.h" // appendJsonEscaped

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

using namespace seminal;
using namespace seminal::server;

void server::appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  appendJsonEscaped(Out, S);
  Out += '"';
}

void server::appendJsonInt(std::string &Out, int64_t N) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), N).ptr);
}

void server::appendJsonUint(std::string &Out, uint64_t N) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), N).ptr);
}

void server::appendJsonDouble(std::string &Out, double D) {
  // An ostream's default output of a double is "%g": precision 6, the
  // shorter of fixed and scientific.
  char Buf[32];
  int N = std::snprintf(Buf, sizeof(Buf), "%g", D);
  Out.append(Buf, size_t(N));
}

void server::appendJsonBool(std::string &Out, bool B) {
  Out += B ? "true" : "false";
}

std::string server::renderValue(const json::Value &V) {
  switch (V.kind()) {
  case json::Value::Kind::Null:
    return "null";
  case json::Value::Kind::Bool:
    return V.boolValue() ? "true" : "false";
  case json::Value::Kind::Number: {
    double N = V.numberValue();
    std::string Out;
    // Ids are almost always small integers; render them without a
    // decimal point so the echo matches what the client sent.
    if (std::floor(N) == N && std::abs(N) < 1e15)
      appendJsonInt(Out, int64_t(N));
    else
      appendJsonDouble(Out, N);
    return Out;
  }
  case json::Value::Kind::String: {
    std::string Out;
    appendJsonString(Out, V.stringValue());
    return Out;
  }
  case json::Value::Kind::Array: {
    std::string Out = "[";
    bool First = true;
    for (const json::Value &E : V.arrayValue()) {
      if (!First)
        Out += ",";
      First = false;
      Out += renderValue(E);
    }
    return Out + "]";
  }
  case json::Value::Kind::Object: {
    std::string Out = "{";
    bool First = true;
    for (const auto &KV : V.objectValue()) {
      if (!First)
        Out += ",";
      First = false;
      appendJsonString(Out, KV.first);
      Out += ':';
      Out += renderValue(KV.second);
    }
    return Out + "}";
  }
  }
  return "null";
}

Request server::parseRequest(const std::string &Line) {
  Request R;
  json::ParseResult P = json::parse(Line);
  if (!P.ok()) {
    R.Error = "malformed request: " + P.Error + " (byte " +
              std::to_string(P.ErrorOffset) + ")";
    return R;
  }
  json::Value &Doc = *P.Doc;
  if (!Doc.isObject()) {
    R.Error = "malformed request: expected a JSON object";
    return R;
  }
  if (const json::Value *Id = Doc.member("id"))
    R.Id = renderValue(*Id);

  std::string Method = Doc.getString("method");
  if (Method.empty()) {
    R.Error = "malformed request: missing \"method\"";
    return R;
  }

  R.Session = Doc.getString("session", "default");
  if (Method == "check") {
    json::Value *Source = Doc.member("source");
    if (!Source || !Source->isString()) {
      R.Error = "malformed request: \"check\" needs a string \"source\"";
      return R;
    }
    R.TheMethod = Request::Method::Check;
    R.Source = Source->takeString(); // P is ours: move, do not copy.
    int64_t MaxSuggestions = Doc.getInt("max_suggestions", 0);
    int64_t MaxCalls = Doc.getInt("max_oracle_calls", 0);
    R.MaxSuggestions = MaxSuggestions > 0 ? size_t(MaxSuggestions) : 0;
    R.MaxOracleCalls = MaxCalls > 0 ? size_t(MaxCalls) : 0;
    R.WantReport = Doc.getBool("report", false);
  } else if (Method == "reset") {
    R.TheMethod = Request::Method::Reset;
  } else if (Method == "stats") {
    R.TheMethod = Request::Method::Stats;
  } else if (Method == "metrics") {
    R.TheMethod = Request::Method::Metrics;
    R.Format = Doc.getString("format");
    if (!R.Format.empty() && R.Format != "json" && R.Format != "prometheus") {
      R.TheMethod = Request::Method::Invalid;
      R.Error = "malformed request: unknown metrics format \"" + R.Format +
                "\" (expected \"json\" or \"prometheus\")";
    }
  } else if (Method == "profile") {
    R.TheMethod = Request::Method::Profile;
    R.Format = Doc.getString("format");
    if (!R.Format.empty() && R.Format != "collapsed" && R.Format != "json") {
      R.TheMethod = Request::Method::Invalid;
      R.Error = "malformed request: unknown profile format \"" + R.Format +
                "\" (expected \"collapsed\" or \"json\")";
      return R;
    }
    // Clamp rather than reject: the window blocks one connection reader,
    // so an over-eager client gets a bounded capture, not an error loop.
    int64_t Seconds = Doc.getInt("seconds", 1);
    R.ProfileSeconds = unsigned(std::min<int64_t>(std::max<int64_t>(Seconds, 1), 30));
  } else if (Method == "ping") {
    R.TheMethod = Request::Method::Ping;
  } else if (Method == "shutdown") {
    R.TheMethod = Request::Method::Shutdown;
  } else {
    R.Error = "malformed request: unknown method \"" + Method + "\"";
  }
  return R;
}

std::string server::errorResponse(const std::string &Id,
                                  const std::string &Message) {
  std::string Out = "{\"id\":" + Id + ",\"ok\":false,\"error\":";
  appendJsonString(Out, Message);
  Out += '}';
  return Out;
}

std::string server::okResponse(const std::string &Id,
                               const std::string &ExtraMembers) {
  return "{\"id\":" + Id + ",\"ok\":true" + ExtraMembers + "}";
}
