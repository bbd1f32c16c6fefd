//===- Slice.h - Constraint-provenance error slicing ------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error slicing over recorded constraint provenance (DESIGN.md section
/// 9). One provenance-instrumented inference run reconstructs the
/// connected component of the constraint graph that contains the clash;
/// mapping that component back to AST nodes yields
///
///   * Influence -- every focus-declaration node whose constraints can
///     reach the clash: the conservative set, since a subtree disjoint
///     from it cannot contain the fix.
///   * Core -- Influence greedily minimized by wildcard re-checks to the
///     antichain of nodes whose constraints are jointly unsatisfiable
///     (the deepest influence nodes when minimization keeps nothing or
///     cannot run); the presentation set ("these program points
///     disagree") and the ranker's boost set.
///
/// The slice explains an error; it never decides which oracle calls the
/// search makes.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_ANALYSIS_SLICE_H
#define SEMINAL_ANALYSIS_SLICE_H

#include "minicaml/Ast.h"

#include <string>
#include <vector>

namespace seminal {
namespace analysis {

/// Tuning knobs for computeErrorSlice.
struct SliceOptions {
  /// Upper bound on internal re-inference runs spent minimizing. These
  /// are private typecheckProgram calls, never oracle calls.
  unsigned MaxMinimizeChecks = 48;
};

/// The result of slicing one ill-typed program.
struct ErrorSlice {
  /// False when no slice could be computed: the program type-checks, the
  /// failure is not a unification clash (unbound name, arity, record
  /// shape) and no span-anchored slice verified, or the failing
  /// declaration has no expression body.
  bool Valid = false;

  /// Declaration the clash was reported in.
  unsigned DeclIndex = 0;

  /// The clashing constraint, rendered ("int" vs "string"); Cyclic marks
  /// an occurs-check failure instead of a constructor clash.
  std::string ClashLeft, ClashRight;
  bool Cyclic = false;

  /// Span of the node whose constraint clashed.
  SourceSpan ClashSpan;

  /// Conservative set: paths (within DeclIndex) of every node whose
  /// constraints connect to the clash component, in preorder. Parallel
  /// to InfluenceSpans.
  std::vector<caml::NodePath> Influence;
  std::vector<SourceSpan> InfluenceSpans;

  /// Minimized set: the jointly-unsatisfiable antichain, a subset of
  /// Influence. Parallel to CoreSpans.
  std::vector<caml::NodePath> Core;
  std::vector<SourceSpan> CoreSpans;

  /// Rendered named types involved in the clash component (deduplicated,
  /// sorted; arrows/tuples/vars omitted).
  std::vector<std::string> InvolvedTypes;

  /// Constraints attributed to prefix declarations or the focus
  /// declaration's header (binding/params) connect to the clash. A
  /// span-anchored slice always reports the header.
  bool PrefixInfluence = false;
  bool DeclHeaderInfluence = false;

  /// True for a span-anchored fallback slice: the failure was not a
  /// unification clash (unbound name, arity, record shape, ...), so no
  /// constraint component exists; instead the core is the deepest node
  /// enclosing the checker's error span, its subtree plus ancestors form
  /// the influence set, and the slice is valid only when the carved
  /// witness -- the focus declaration with every maximal subtree disjoint
  /// from the core replaced by a wildcard -- still fails to type-check.
  bool SpanAnchored = false;

  /// Total expression nodes in the focus declaration (prune-ratio
  /// denominator) and bookkeeping for the stats report.
  size_t DeclNodes = 0;
  size_t MinimizeChecks = 0;

  /// Human-readable one-screen rendering (the CLI `--slice` block).
  std::string render(const std::string &SourceName = "") const;
};

/// Computes the error slice of \p Prog, whose first \p FocusDecl + 1
/// declarations must form an ill-typed prefix (declarations past
/// FocusDecl are ignored). Runs provenance-instrumented inference
/// internally; never touches the search oracle.
ErrorSlice computeErrorSlice(const caml::Program &Prog, unsigned FocusDecl,
                             const SliceOptions &Opts = SliceOptions());

} // namespace analysis
} // namespace seminal

#endif // SEMINAL_ANALYSIS_SLICE_H
