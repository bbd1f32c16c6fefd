//===- ByteFuzzTest.cpp - Seeded byte-level fuzzing of the input parsers ---==//
//
// Hostile bytes reach three parsers straight from a client: the mini-Caml
// lexer and parser (a check's source), the JSON reader and the request
// decoder (every line on the daemon's socket). Each must answer every
// input with a value or an error, and never throw or crash. The inputs
// are deterministic mutations of valid programs and request lines: byte
// flips, inserts, deletes, and splices of the byte sequences the lexers
// treat specially. Tier-1 runs this, and so CI runs it under ASan+UBSan.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "minicaml/Parser.h"
#include "server/Protocol.h"
#include "support/Json.h"
#include "support/Trace.h" // jsonEscape

#include <gtest/gtest.h>

#include <exception>
#include <random>
#include <string>
#include <vector>

using namespace seminal;

namespace {

/// Sequences that open or end a lexical context (comment, string, escape)
/// or overflow a literal.
const char *const Splices[] = {"(*", "\"", "\\u", "99999999999999999999"};

/// Applies one to four random edits to \p S.
std::string mutate(std::string S, std::mt19937_64 &Gen) {
  auto Below = [&Gen](size_t N) { return size_t(Gen() % N); };
  for (size_t Edits = 1 + Below(4); Edits > 0; --Edits) {
    size_t At = Below(S.size() + 1);
    switch (Below(4)) {
    case 0: // flip one bit
      if (At < S.size())
        S[At] = char(uint8_t(S[At]) ^ uint8_t(1u << Below(8)));
      break;
    case 1: // insert an arbitrary byte
      S.insert(S.begin() + long(At), char(Gen() & 0xff));
      break;
    case 2: // delete a short run
      if (At < S.size())
        S.erase(At, 1 + Below(8));
      break;
    default:
      S.insert(At, Splices[Below(std::size(Splices))]);
      break;
    }
  }
  return S;
}

/// Valid inputs to mutate: whole programs, and request lines of every
/// method.
std::vector<std::string> seeds() {
  std::vector<std::string> Programs = {
      "let x = 1 + \"two\"\n",
      "let inc x = x + 1\nlet twice f y = f (f y)\nlet out = twice inc true\n",
      "type shape = Circle of int | Square of int\n"
      "let area s = match s with Circle r -> r * r | Square w -> w * w\n",
      "let lst = List.map (fun (x, y) -> x + y) [1;2;3]\n",
      "exception Oops of string\nlet f x = if x then raise (Oops \"no\") "
      "else (* fine *) 0\n"};
  for (const AssignmentTemplate &T : assignmentTemplates())
    Programs.push_back(T.Source);

  std::vector<std::string> Seeds = Programs;
  for (size_t I = 0; I < Programs.size(); ++I)
    Seeds.push_back("{\"method\":\"check\",\"id\":" + std::to_string(I) +
                    ",\"session\":\"s\\u00e9\",\"source\":\"" +
                    jsonEscape(Programs[I]) +
                    "\",\"max_suggestions\":3,\"max_oracle_calls\":100,"
                    "\"report\":true}");
  for (const char *Line :
       {"{\"method\":\"ping\",\"id\":\"a-1\"}",
        "{\"method\":\"stats\",\"id\":2}",
        "{\"method\":\"reset\",\"id\":[3],\"session\":\"s\"}",
        "{\"method\":\"metrics\",\"id\":4,\"format\":\"prometheus\"}",
        "{\"method\":\"profile\",\"id\":{\"n\":5},\"seconds\":2.5,"
        "\"format\":\"json\"}",
        "{\"method\":\"shutdown\",\"id\":null}"})
    Seeds.push_back(Line);
  return Seeds;
}

TEST(ByteFuzzTest, ParsersAnswerEveryMutatedInput) {
  constexpr uint64_t Seed = 20070611;
  constexpr size_t Inputs = 20000;
  std::vector<std::string> Seeds = seeds();
  std::mt19937_64 Gen(Seed);
  size_t Failures = 0;
  size_t Programs = 0, Documents = 0, Requests = 0;
  for (size_t I = 0; I < Inputs && Failures < 5; ++I) {
    std::string Input = mutate(Seeds[I % Seeds.size()], Gen);
    std::string Where = "input " + std::to_string(I) + " (seed " +
                        std::to_string(Seed) + "): \"" + jsonEscape(Input) +
                        "\"";
    try {
      caml::ParseResult P = caml::parseProgram(Input);
      EXPECT_NE(P.ok(), P.Error.has_value()) << Where;
      Programs += P.ok();

      json::ParseResult J = json::parse(Input);
      EXPECT_TRUE(J.ok() || !J.Error.empty()) << Where;
      Documents += J.ok();

      server::Request R = server::parseRequest(Input);
      if (R.TheMethod == server::Request::Method::Invalid)
        EXPECT_FALSE(R.Error.empty()) << Where;
      else
        ++Requests;
    } catch (const std::exception &E) {
      ++Failures;
      ADD_FAILURE() << Where << " threw: " << E.what();
    } catch (...) {
      ++Failures;
      ADD_FAILURE() << Where << " threw a non-exception";
    }
  }
  // Most edits break their input; some must leave it valid, or the
  // mutations never reach past the first syntax error.
  EXPECT_GT(Programs, 0u);
  EXPECT_GT(Documents, 0u);
  EXPECT_GT(Requests, 0u);
}

} // namespace
