//===- Judge.h - Automated message-quality judgment -------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mechanizes the paper's manual analysis (Section 3.1). The authors
/// separated two measurements per message: did it identify a good
/// *location*, and did it *describe the problem* at that location
/// correctly. With ground-truth mutations we can decide both
/// automatically:
///
///   * A SEMINAL suggestion is ACCURATE when its location is (within one
///     tree edge of) the mutated node and it proposes an actual edit
///     (constructive/pattern fix, or the unbound-variable conclusion);
///     GOOD-LOCATION when its path is prefix-related to the truth within
///     three edges; POOR otherwise.
///   * A checker diagnostic is judged by the paper's own misleading-ness
///     criterion: a location is *useful* only if some change there can
///     make the program type-check -- tested with one oracle call by
///     wildcarding the blamed node (Section 1's point (3)). A useful
///     location is ACCURATE when it is exactly the mutated node and
///     GOOD-LOCATION when prefix-related within three edges.
///
/// Files with several mutations are judged against their best-matching
/// mutation.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_EVAL_JUDGE_H
#define SEMINAL_EVAL_JUDGE_H

#include "core/Seminal.h"
#include "corpus/Mutation.h"
#include "minicaml/Ast.h"

#include <optional>

namespace seminal {

/// Ordered message quality (higher is better).
enum class Quality { Poor = 0, GoodLocation = 1, Accurate = 2 };

/// Renders for reports.
std::string qualityName(Quality Q);

/// Tree distance between prefix-related paths: number of edges between
/// them when one is an ancestor of the other (0 = same node); nullopt
/// when the paths lie in different subtrees or declarations.
std::optional<unsigned> pathDistance(const caml::NodePath &A,
                                     const caml::NodePath &B);

/// Deepest expression whose span contains \p Offset, as a path.
std::optional<caml::NodePath> pathAtOffset(const caml::Program &Prog,
                                           uint32_t Offset);

/// Judges one SEMINAL suggestion against the ground truth (the per-item
/// criterion judgeSeminal applies to the top-ranked one).
Quality judgeSuggestion(const Suggestion &S,
                        const std::vector<GroundTruth> &Truths);

/// Judges the top-ranked SEMINAL suggestion against the ground truth.
Quality judgeSeminal(const SeminalReport &Report,
                     const std::vector<GroundTruth> &Truths);

/// 1-based rank of the first suggestion judged Accurate against the
/// ground truth -- the telemetry "rank of the true fix". 0 when no
/// ranked suggestion is Accurate.
int rankOfTrueFix(const SeminalReport &Report,
                  const std::vector<GroundTruth> &Truths);

/// Judges the conventional checker message against the ground truth.
/// \p Prog must be parsed from the same source the error refers to.
Quality judgeChecker(const caml::Program &Prog,
                     const std::optional<caml::TypeError> &Error,
                     const std::vector<GroundTruth> &Truths);

} // namespace seminal

#endif // SEMINAL_EVAL_JUDGE_H
