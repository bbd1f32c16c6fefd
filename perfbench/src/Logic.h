//===- Logic.h - The benchmark's own logic, kept testable -------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark decides by itself, apart from timing: how the
/// synthetic corpus becomes a replay of editor sessions, which checks are
/// byte-identical resubmissions, how request lines are built, how a
/// check's output is canonicalized and digested, how a daemon reply is
/// parsed, and which percentile a sample count can support. The workloads
/// in main.cpp only drive and time these.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOGIC_H
#define PERFBENCH_LOGIC_H

#include "core/Seminal.h"
#include "corpus/Generator.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// The replay plan
//===----------------------------------------------------------------------===//

/// \p Cohorts corpora of \p Scale, one per simulated class of ten
/// programmers x five assignments, concatenated. Cohort 0 is generated
/// from \p Seed itself and cohort j from a seed derived from it; each
/// cohort's programmers are renumbered (+100 per cohort) so no two cohorts
/// share a session.
seminal::Corpus generateCohorts(uint64_t Seed, unsigned Cohorts, double Scale);

/// One check of a pass: corpus file \c File sent in session \c Session.
struct Check {
  uint32_t File = 0;
  uint32_t Session = 0;
  /// Byte-identical to the previous check of the same session. Decided
  /// by the input alone, never by how the program served the check.
  bool Unchanged = false;
};

/// One pass over the corpus as editor sessions: one session per
/// programmer x assignment, in corpus order. Each analyzed file is sent
/// once and then resent ClassSize-1 times (Figure 6's recompiles).
struct Plan {
  std::vector<std::string> Sources; ///< One per analyzed corpus file.
  std::vector<Check> Checks;        ///< One pass, session after session.
  /// Index into Checks of each session's first check, plus a final
  /// Checks.size() sentinel.
  std::vector<size_t> SessionStart;

  size_t sessions() const { return SessionStart.size() - 1; }
};

Plan buildPlan(const seminal::Corpus &C);

/// The workload properties a later performance claim may depend on.
struct Properties {
  size_t Files = 0;
  size_t ChecksPerPass = 0;
  size_t SessionsPerPass = 0;
  double UnchangedShare = 0;  ///< Unchanged checks / all checks.
  double MultiErrorShare = 0; ///< Files with >1 injected error / files.
  double MeanDecls = 0;       ///< Top-level declarations per file.
};

Properties describe(const seminal::Corpus &C, const Plan &P);

//===----------------------------------------------------------------------===//
// Request lines
//===----------------------------------------------------------------------===//

/// Width of the pass number inside a session name; passes are numbered
/// 0..10^PassDigits-1.
constexpr size_t PassDigits = 6;

/// "p<pass>-s<session>": every pass uses fresh session names.
std::string sessionName(uint64_t Pass, uint32_t Session);

/// A check request line built once at set-up. The pass number inside the
/// session name sits at a fixed offset and is stamped in place per pass,
/// so the timed loop never formats or escapes a request.
struct RequestLine {
  std::string Text; ///< Ends in '\n'.
  size_t PassOffset = 0;
};

RequestLine checkRequest(size_t Id, uint32_t Session,
                         const std::string &Source);

/// Writes \p Pass (mod 10^PassDigits) into the session name of \p Line.
void stampPass(std::string &Text, size_t PassOffset, uint64_t Pass);

//===----------------------------------------------------------------------===//
// Outputs
//===----------------------------------------------------------------------===//

/// The rendered output of one check: the conventional message, then each
/// ranked suggestion's rendered message, separated by record separators.
std::string canonicalOutput(const std::string &Conventional,
                            const std::vector<std::string> &Messages);

/// canonicalOutput of a one-shot report, rendered as seminal_cli and the
/// daemon render it.
std::string renderReport(const seminal::SeminalReport &R);

/// FNV-1a, 64 bit.
uint64_t digest(const std::string &Bytes);

/// Reads "<file index> <16 hex digits>" lines; \returns false when the
/// file is missing or malformed.
bool readDigests(const std::string &Path, std::vector<uint64_t> &Out);

//===----------------------------------------------------------------------===//
// Replies
//===----------------------------------------------------------------------===//

/// One check reply of the daemon, reduced to what the benchmark checks
/// and measures.
struct Reply {
  /// False for unparseable lines, error replies, syntax errors and
  /// replies without the check members; Error says which.
  bool Ok = false;
  std::string Error;
  std::string Id;     ///< The echoed id, as JSON text.
  std::string Output; ///< canonicalOutput of the reply.
  int64_t WallNs = 0;
  int64_t CpuNs = 0;
  int64_t OracleCalls = 0;
  int64_t InferenceRuns = 0;
  int64_t PrefixHits = 0;
  int64_t VerdictReuses = 0;
  int64_t SeedAdoptions = 0;
  int64_t ConvMemoHits = 0;
};

Reply parseCheckReply(const std::string &Line);

//===----------------------------------------------------------------------===//
// Percentiles
//===----------------------------------------------------------------------===//

/// True when \p N samples leave at least ten beyond the percentile
/// \p PerMille / 10 (990 = p99).
bool resolves(size_t N, unsigned PerMille);

/// The highest of p99.9, p99, p95, p90 and p50 (as per-mille) that \p N
/// samples resolve; 0 when none does.
unsigned highestResolvedPerMille(size_t N);

/// Nearest-rank percentile of ascending \p Sorted; 0 when empty.
double percentile(const std::vector<double> &Sorted, unsigned PerMille);

/// Median of \p V (sorts a copy; the mean of the middle pair when even).
double median(std::vector<double> V);

} // namespace perfbench

#endif // PERFBENCH_LOGIC_H
