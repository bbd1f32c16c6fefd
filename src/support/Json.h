//===- Json.h - Minimal JSON document parser --------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON reader for the server protocol
/// (src/server). The tree writes JSON in several places (Trace exporters,
/// RunReport, the bench snapshots) but until the daemon nothing needed to
/// *read* it. This is a strict RFC 8259 parser into a tiny DOM; numbers
/// are kept as doubles (the protocol's integers are small), object keys
/// preserve last-wins semantics on duplicates, and errors carry a byte
/// offset so the server can echo a useful diagnostic for a malformed
/// request line without killing the connection.
///
/// Writing stays with the existing helpers (the escaper in
/// support/Trace.h, the reply writers in server/Protocol.h); this header
/// adds only what reading needs. Strings are decoded a run at a time:
/// the bytes up to the next quote, backslash or control byte are
/// appended in one call.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SUPPORT_JSON_H
#define SEMINAL_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace seminal {
namespace json {

/// One parsed JSON value. A tagged union kept deliberately simple:
/// vectors/maps of whole Values, no allocator tricks -- protocol
/// requests are a few hundred bytes plus one program source string.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() : TheKind(Kind::Null) {}
  static Value makeBool(bool B);
  static Value makeNumber(double N);
  static Value makeString(std::string S);
  static Value makeArray(std::vector<Value> Elems);
  static Value makeObject(std::map<std::string, Value> Members);

  Kind kind() const { return TheKind; }
  bool isNull() const { return TheKind == Kind::Null; }
  bool isBool() const { return TheKind == Kind::Bool; }
  bool isNumber() const { return TheKind == Kind::Number; }
  bool isString() const { return TheKind == Kind::String; }
  bool isArray() const { return TheKind == Kind::Array; }
  bool isObject() const { return TheKind == Kind::Object; }

  bool boolValue() const { return Bool; }
  double numberValue() const { return Number; }
  const std::string &stringValue() const { return Str; }
  const std::vector<Value> &arrayValue() const { return Elems; }
  const std::map<std::string, Value> &objectValue() const { return Members; }

  /// Object member lookup; null when absent or not an object.
  const Value *member(const std::string &Key) const;
  Value *member(const std::string &Key);

  /// Moves the string value out, leaving this value's string empty: a
  /// caller that owns the document keeps a large member without a copy.
  std::string takeString() { return std::move(Str); }

  // Typed accessors with defaults, for protocol fields ------------------
  /// The member's string value, or \p Default when absent / wrong type.
  std::string getString(const std::string &Key,
                        const std::string &Default = "") const;
  /// The member's numeric value truncated to int64, or \p Default.
  int64_t getInt(const std::string &Key, int64_t Default = 0) const;
  bool getBool(const std::string &Key, bool Default = false) const;

private:
  Kind TheKind;
  bool Bool = false;
  double Number = 0.0;
  std::string Str;
  std::vector<Value> Elems;
  std::map<std::string, Value> Members;
};

/// Outcome of a parse: a value, or an error message with the byte
/// offset it was detected at.
struct ParseResult {
  std::optional<Value> Doc;
  std::string Error;
  size_t ErrorOffset = 0;

  bool ok() const { return Doc.has_value(); }
};

/// Parses exactly one JSON document from \p Text (leading/trailing
/// whitespace allowed, anything else after the document is an error).
ParseResult parse(const std::string &Text);

} // namespace json
} // namespace seminal

#endif // SEMINAL_SUPPORT_JSON_H
