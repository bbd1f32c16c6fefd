//===- Logic.cpp - The benchmark's own logic -------------------------------==//

#include "Logic.h"

#include "core/Message.h"
#include "minicaml/Parser.h"
#include "support/Json.h"
#include "support/Trace.h" // jsonEscape

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

using namespace perfbench;

seminal::Corpus perfbench::generateCohorts(uint64_t Seed, unsigned Cohorts,
                                           double Scale) {
  seminal::Corpus All;
  for (unsigned J = 0; J < Cohorts; ++J) {
    seminal::CorpusOptions Opts;
    Opts.Seed = Seed + J * 0x9E3779B97F4A7C15ull;
    Opts.Scale = Scale;
    seminal::Corpus C = seminal::generateCorpus(Opts);
    for (seminal::CorpusFile &F : C.Analyzed) {
      F.Programmer += 100 * int(J);
      All.Analyzed.push_back(std::move(F));
    }
    All.TotalCollected += C.TotalCollected;
  }
  return All;
}

Plan perfbench::buildPlan(const seminal::Corpus &C) {
  Plan P;
  // Sessions in order of first appearance; the generator emits files
  // programmer by programmer, assignment by assignment, so each session's
  // files are contiguous and in collection order.
  std::map<std::pair<int, int>, uint32_t> SessionOf;
  std::vector<std::vector<uint32_t>> FilesOf;
  for (size_t F = 0; F < C.Analyzed.size(); ++F) {
    const seminal::CorpusFile &File = C.Analyzed[F];
    P.Sources.push_back(File.Source);
    auto [It, Inserted] = SessionOf.emplace(
        std::make_pair(File.Programmer, File.Assignment),
        uint32_t(FilesOf.size()));
    if (Inserted)
      FilesOf.emplace_back();
    FilesOf[It->second].push_back(uint32_t(F));
  }
  for (uint32_t S = 0; S < FilesOf.size(); ++S) {
    P.SessionStart.push_back(P.Checks.size());
    const std::string *Previous = nullptr;
    for (uint32_t F : FilesOf[S]) {
      unsigned Sends = std::max(1u, C.Analyzed[F].ClassSize);
      for (unsigned I = 0; I < Sends; ++I) {
        Check Ch;
        Ch.File = F;
        Ch.Session = S;
        Ch.Unchanged = Previous && *Previous == P.Sources[F];
        P.Checks.push_back(Ch);
        Previous = &P.Sources[F];
      }
    }
  }
  P.SessionStart.push_back(P.Checks.size());
  return P;
}

Properties perfbench::describe(const seminal::Corpus &C, const Plan &P) {
  Properties Out;
  Out.Files = P.Sources.size();
  Out.ChecksPerPass = P.Checks.size();
  Out.SessionsPerPass = P.sessions();
  size_t Unchanged = 0;
  for (const Check &Ch : P.Checks)
    Unchanged += Ch.Unchanged;
  size_t Multi = 0, Decls = 0;
  for (const seminal::CorpusFile &F : C.Analyzed) {
    Multi += F.Truths.size() > 1;
    seminal::caml::ParseResult R = seminal::caml::parseProgram(F.Source);
    if (R.ok())
      Decls += R.Prog->Decls.size();
  }
  if (!P.Checks.empty())
    Out.UnchangedShare = double(Unchanged) / double(P.Checks.size());
  if (Out.Files) {
    Out.MultiErrorShare = double(Multi) / double(Out.Files);
    Out.MeanDecls = double(Decls) / double(Out.Files);
  }
  return Out;
}

std::string perfbench::sessionName(uint64_t Pass, uint32_t Session) {
  std::string Name = "p" + std::string(PassDigits, '0') + "-s" +
                     std::to_string(Session);
  stampPass(Name, 1, Pass);
  return Name;
}

RequestLine perfbench::checkRequest(size_t Id, uint32_t Session,
                                    const std::string &Source) {
  RequestLine L;
  L.Text = "{\"method\":\"check\",\"id\":" + std::to_string(Id) +
           ",\"session\":\"";
  L.PassOffset = L.Text.size() + 1; // after the 'p'
  L.Text += sessionName(0, Session) + "\",\"source\":\"" +
            seminal::jsonEscape(Source) + "\"}\n";
  return L;
}

void perfbench::stampPass(std::string &Text, size_t PassOffset,
                          uint64_t Pass) {
  for (size_t I = PassDigits; I-- > 0;) {
    Text[PassOffset + I] = char('0' + Pass % 10);
    Pass /= 10;
  }
}

std::string perfbench::canonicalOutput(
    const std::string &Conventional, const std::vector<std::string> &Messages) {
  std::string Out = Conventional;
  for (const std::string &M : Messages) {
    Out += '\x1e';
    Out += M;
  }
  return Out;
}

std::string perfbench::renderReport(const seminal::SeminalReport &R) {
  std::vector<std::string> Messages;
  Messages.reserve(R.Suggestions.size());
  for (const seminal::Suggestion &S : R.Suggestions)
    Messages.push_back(seminal::renderSuggestion(S));
  // The daemon leaves the conventional message empty for a file that
  // type-checks; so does the canonical form.
  return canonicalOutput(R.InputTypechecks ? "" : R.conventionalMessage(),
                         Messages);
}

uint64_t perfbench::digest(const std::string &Bytes) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

bool perfbench::readDigests(const std::string &Path,
                            std::vector<uint64_t> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  Out.clear();
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    unsigned long long Index = 0, Value = 0;
    if (std::sscanf(Line.c_str(), "%llu %llx", &Index, &Value) != 2 ||
        Index != Out.size())
      return false;
    Out.push_back(Value);
  }
  return true;
}

Reply perfbench::parseCheckReply(const std::string &Line) {
  Reply R;
  seminal::json::ParseResult P = seminal::json::parse(Line);
  if (!P.ok() || !P.Doc->isObject()) {
    R.Error = "unparseable reply: " + P.Error;
    return R;
  }
  const seminal::json::Value &Doc = *P.Doc;
  if (const seminal::json::Value *Id = Doc.member("id"))
    R.Id = Id->isNumber()   ? std::to_string(int64_t(Id->numberValue()))
           : Id->isString() ? Id->stringValue()
                            : "null";
  if (!Doc.getBool("ok")) {
    R.Error = "error reply: " + Doc.getString("error");
    return R;
  }
  if (Doc.member("syntax_error")) {
    R.Error = "syntax error: " + Doc.getString("syntax_error");
    return R;
  }
  const seminal::json::Value *Conv = Doc.member("conventional");
  const seminal::json::Value *Sugg = Doc.member("suggestions");
  if (!Conv || !Conv->isString() || !Sugg || !Sugg->isArray()) {
    R.Error = "reply lacks the check members";
    return R;
  }
  std::vector<std::string> Messages;
  for (const seminal::json::Value &S : Sugg->arrayValue())
    Messages.push_back(S.getString("message"));
  R.Output = canonicalOutput(Conv->stringValue(), Messages);

  static const seminal::json::Value Empty;
  const seminal::json::Value *Cost = Doc.member("cost");
  const seminal::json::Value *Warm = Doc.member("warm");
  const seminal::json::Value &C = Cost ? *Cost : Empty;
  const seminal::json::Value &W = Warm ? *Warm : Empty;
  R.WallNs = C.getInt("wall_ns");
  R.CpuNs = C.getInt("cpu_ns");
  R.OracleCalls = Doc.getInt("oracle_calls");
  R.InferenceRuns = Doc.getInt("inference_runs");
  R.PrefixHits = W.getInt("prefix_hits");
  R.VerdictReuses = W.getInt("verdict_reuses");
  R.SeedAdoptions = W.getInt("seed_adoptions");
  R.ConvMemoHits = W.getInt("conv_memo_hits");
  R.Ok = true;
  return R;
}

bool perfbench::resolves(size_t N, unsigned PerMille) {
  // Integer arithmetic: 100 - 99.9 is not exact in floating point.
  return PerMille < 1000 && uint64_t(N) * (1000 - PerMille) >= 10 * 1000;
}

unsigned perfbench::highestResolvedPerMille(size_t N) {
  for (unsigned P : {999u, 990u, 950u, 900u, 500u})
    if (resolves(N, P))
      return P;
  return 0;
}

double perfbench::percentile(const std::vector<double> &Sorted,
                             unsigned PerMille) {
  if (Sorted.empty())
    return 0.0;
  size_t Rank = (uint64_t(Sorted.size()) * PerMille + 999) / 1000;
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}
