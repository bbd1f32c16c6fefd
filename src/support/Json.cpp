//===- Json.cpp - Minimal JSON document parser ------------------------------==//

#include "support/Json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>

using namespace seminal;
using namespace seminal::json;

Value Value::makeBool(bool B) {
  Value V;
  V.TheKind = Kind::Bool;
  V.Bool = B;
  return V;
}

Value Value::makeNumber(double N) {
  Value V;
  V.TheKind = Kind::Number;
  V.Number = N;
  return V;
}

Value Value::makeString(std::string S) {
  Value V;
  V.TheKind = Kind::String;
  V.Str = std::move(S);
  return V;
}

Value Value::makeArray(std::vector<Value> Elems) {
  Value V;
  V.TheKind = Kind::Array;
  V.Elems = std::move(Elems);
  return V;
}

Value Value::makeObject(std::map<std::string, Value> Members) {
  Value V;
  V.TheKind = Kind::Object;
  V.Members = std::move(Members);
  return V;
}

const Value *Value::member(const std::string &Key) const {
  if (TheKind != Kind::Object)
    return nullptr;
  auto It = Members.find(Key);
  return It == Members.end() ? nullptr : &It->second;
}

Value *Value::member(const std::string &Key) {
  return const_cast<Value *>(std::as_const(*this).member(Key));
}

std::string Value::getString(const std::string &Key,
                             const std::string &Default) const {
  const Value *V = member(Key);
  return V && V->isString() ? V->Str : Default;
}

int64_t Value::getInt(const std::string &Key, int64_t Default) const {
  const Value *V = member(Key);
  return V && V->isNumber() ? int64_t(V->Number) : Default;
}

bool Value::getBool(const std::string &Key, bool Default) const {
  const Value *V = member(Key);
  return V && V->isBool() ? V->Bool : Default;
}

namespace {

/// Recursive-descent parser; depth-limited so a pathological request
/// line cannot blow the stack.
class Parser {
public:
  explicit Parser(const std::string &Text) : S(Text) {}

  ParseResult run() {
    ParseResult R;
    skipWs();
    Value V;
    if (!value(V, 0)) {
      R.Error = Err;
      R.ErrorOffset = ErrAt;
      return R;
    }
    skipWs();
    if (Pos != S.size()) {
      R.Error = "trailing content after JSON document";
      R.ErrorOffset = Pos;
      return R;
    }
    R.Doc = std::move(V);
    return R;
  }

private:
  static constexpr int MaxDepth = 64;

  const std::string &S;
  size_t Pos = 0;
  std::string Err;
  size_t ErrAt = 0;

  bool fail(const char *Message) {
    if (Err.empty()) {
      Err = Message;
      ErrAt = Pos;
    }
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    size_t N = 0;
    while (Lit[N])
      ++N;
    if (S.compare(Pos, N, Lit) != 0)
      return fail("invalid literal");
    Pos += N;
    return true;
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out.push_back(char(Code));
    } else if (Code < 0x800) {
      Out.push_back(char(0xC0 | (Code >> 6)));
      Out.push_back(char(0x80 | (Code & 0x3F)));
    } else if (Code < 0x10000) {
      Out.push_back(char(0xE0 | (Code >> 12)));
      Out.push_back(char(0x80 | ((Code >> 6) & 0x3F)));
      Out.push_back(char(0x80 | (Code & 0x3F)));
    } else {
      Out.push_back(char(0xF0 | (Code >> 18)));
      Out.push_back(char(0x80 | ((Code >> 12) & 0x3F)));
      Out.push_back(char(0x80 | ((Code >> 6) & 0x3F)));
      Out.push_back(char(0x80 | (Code & 0x3F)));
    }
  }

  bool hex4(unsigned &Out) {
    if (Pos + 4 > S.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = S[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= unsigned(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= unsigned(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= unsigned(C - 'A' + 10);
      else
        return fail("invalid \\u escape digit");
    }
    return true;
  }

  bool string(std::string &Out) {
    if (!consume('"'))
      return fail("expected string");
    Out.clear();
    const char *Begin = S.data(), *End = Begin + S.size();
    while (Pos < S.size()) {
      // Append the run up to the next quote, backslash or control byte
      // in one call.
      const char *Run = Begin + Pos, *P = Run;
      while (P != End && *P != '"' && *P != '\\' && (unsigned char)*P >= 0x20)
        ++P;
      Out.append(Run, size_t(P - Run));
      Pos = size_t(P - Begin);
      if (P == End)
        break;
      if (*P == '"') {
        ++Pos;
        return true;
      }
      if (*P != '\\')
        return fail("unescaped control character in string");
      ++Pos;
      if (Pos >= S.size())
        return fail("truncated escape");
      char E = S[Pos++];
      switch (E) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      case 'n': Out.push_back('\n'); break;
      case 'r': Out.push_back('\r'); break;
      case 't': Out.push_back('\t'); break;
      case 'u': {
        unsigned Code;
        if (!hex4(Code))
          return false;
        // Surrogate pair: a high surrogate must be followed by \uDC00..
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          if (Pos + 2 <= S.size() && S[Pos] == '\\' && S[Pos + 1] == 'u') {
            Pos += 2;
            unsigned Low;
            if (!hex4(Low))
              return false;
            if (Low < 0xDC00 || Low > 0xDFFF)
              return fail("invalid low surrogate");
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          } else {
            return fail("unpaired surrogate");
          }
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(Value &Out) {
    size_t Start = Pos;
    if (consume('-')) {
    }
    if (Pos >= S.size() || !std::isdigit((unsigned char)S[Pos]))
      return fail("invalid number");
    if (S[Pos] == '0')
      ++Pos;
    else
      while (Pos < S.size() && std::isdigit((unsigned char)S[Pos]))
        ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      if (Pos >= S.size() || !std::isdigit((unsigned char)S[Pos]))
        return fail("digit expected after decimal point");
      while (Pos < S.size() && std::isdigit((unsigned char)S[Pos]))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (Pos >= S.size() || !std::isdigit((unsigned char)S[Pos]))
        return fail("digit expected in exponent");
      while (Pos < S.size() && std::isdigit((unsigned char)S[Pos]))
        ++Pos;
    }
    double D = std::strtod(S.c_str() + Start, nullptr);
    if (!std::isfinite(D))
      return fail("number out of range");
    Out = Value::makeNumber(D);
    return true;
  }

  bool value(Value &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= S.size())
      return fail("unexpected end of input");
    char C = S[Pos];
    if (C == '{')
      return object(Out, Depth);
    if (C == '[')
      return array(Out, Depth);
    if (C == '"') {
      std::string Str;
      if (!string(Str))
        return false;
      Out = Value::makeString(std::move(Str));
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return false;
      Out = Value::makeBool(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return false;
      Out = Value::makeBool(false);
      return true;
    }
    if (C == 'n') {
      if (!literal("null"))
        return false;
      Out = Value();
      return true;
    }
    if (C == '-' || std::isdigit((unsigned char)C))
      return number(Out);
    return fail("unexpected character");
  }

  bool object(Value &Out, int Depth) {
    consume('{');
    std::map<std::string, Value> Members;
    skipWs();
    if (consume('}')) {
      Out = Value::makeObject(std::move(Members));
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' in object");
      Value V;
      if (!value(V, Depth + 1))
        return false;
      Members[Key] = std::move(V); // Duplicate keys: last one wins.
      skipWs();
      if (consume('}'))
        break;
      if (!consume(','))
        return fail("expected ',' or '}' in object");
    }
    Out = Value::makeObject(std::move(Members));
    return true;
  }

  bool array(Value &Out, int Depth) {
    consume('[');
    std::vector<Value> Elems;
    skipWs();
    if (consume(']')) {
      Out = Value::makeArray(std::move(Elems));
      return true;
    }
    for (;;) {
      Value V;
      if (!value(V, Depth + 1))
        return false;
      Elems.push_back(std::move(V));
      skipWs();
      if (consume(']'))
        break;
      if (!consume(','))
        return fail("expected ',' or ']' in array");
    }
    Out = Value::makeArray(std::move(Elems));
    return true;
  }
};

} // namespace

ParseResult json::parse(const std::string &Text) {
  return Parser(Text).run();
}
