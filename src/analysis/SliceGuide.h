//===- SliceGuide.h - Slice-driven search pruning ---------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bridge between an ErrorSlice and the searcher: answers, for a
/// candidate site, whether a probe's verdict is already known to be
/// negative so the oracle call can be skipped. Every query is backed by
/// the monotonicity argument in DESIGN.md section 9: a wildcard only
/// removes typing constraints, so if a subtree contributes nothing to
/// the clash component, wildcarding it leaves the component -- and the
/// failure -- intact. The guide therefore never changes a verdict, only
/// avoids asking for ones that are forced; suggestion lists stay
/// bit-identical (asserted by bench_slice_ablation and FuzzTest).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_ANALYSIS_SLICEGUIDE_H
#define SEMINAL_ANALYSIS_SLICEGUIDE_H

#include "analysis/Slice.h"
#include "minicaml/Arena.h"
#include "minicaml/Ast.h"

#include <cstddef>
#include <unordered_set>

namespace seminal {
namespace analysis {

class SliceGuide {
public:
  /// Resolves the slice's paths against \p Prog (the program the searcher
  /// edits -- it must be the program the slice was computed on; pointer
  /// identity is used for membership). The guide holds no ownership; both
  /// arguments must outlive it.
  SliceGuide(const caml::Program &Prog, const ErrorSlice &Slice);

  /// True when the removal probe `[[...]]` at \p Root is guaranteed to
  /// fail, and with it every change rooted in the subtree (Section 2.1's
  /// pruning, decided statically). Two sufficient conditions:
  ///   * no influence node lies inside the subtree (the clash component
  ///     is untouched by wildcarding it), or
  ///   * the slice's carved witness verified and Root's subtree is
  ///     disjoint from the core closure (every core subtree and its
  ///     ancestors): the probe program keeps a superset of the witness's
  ///     constraints, and the witness fails.
  /// Counts one saved oracle call when true.
  bool subtreeDoomed(const caml::Expr &Root) const;

  /// True when the entire clash component lives inside \p Root's subtree
  /// (no prefix or declaration-header constraints involved): `adapt Root`
  /// replays the clash internally, so the adaptation probe is guaranteed
  /// to fail.
  bool adaptationDoomed(const caml::Expr &Root) const;

  /// True when every argument subtree of application \p App is disjoint
  /// from the influence set: the enumerator's all-wildcard-arguments
  /// probe (`f [[...]] ... [[...]]`) is guaranteed to fail, so the
  /// argument-permutation family can be gated off without the probe call.
  bool argumentsDoomed(const caml::Expr &App) const;

  /// True when candidate replacement \p Repl differs from the original
  /// node \p Orig only inside subtrees that lie outside the core closure
  /// (requires the verified witness). Such a candidate leaves every core
  /// subtree and every ancestor on its spine untouched at its original
  /// position, so the candidate program keeps a superset of the witness's
  /// constraints -- and the witness fails. Its oracle verdict is
  /// therefore a guaranteed "no"; the searcher treats it as a failed
  /// probe without the call.
  bool candidateDoomed(const caml::Expr &Orig, const caml::Expr &Repl) const;

  /// Overlay-spine variant of candidateDoomed: \p OrigId / \p ReplId are
  /// the two trees' interned ids in \p Arena. Identical subtrees compare
  /// as one integer, so the walk visits only the edit spine where the
  /// trees actually differ instead of re-diffing shared structure.
  /// Result-identical to candidateDoomed (asserted by ArenaTest).
  bool candidateDoomed(const caml::Expr &Orig, caml::AstArena::ExprId OrigId,
                       const caml::Expr &Repl, caml::AstArena::ExprId ReplId,
                       const caml::AstArena &Arena) const;

  /// True when \p Node is in the minimized core (the ranker's boost set).
  bool inCore(const caml::Expr &Node) const {
    return CoreExprs.count(&Node) != 0;
  }

  /// True when \p Node is in the conservative influence set.
  bool inInfluence(const caml::Expr &Node) const {
    return InfluenceExprs.count(&Node) != 0;
  }

  size_t influenceSize() const { return InfluenceExprs.size(); }

  /// Statically-skipped oracle calls, by probe kind. Mutable counters:
  /// the searcher and enumerator bump them from const context while
  /// enumerating (single-threaded by construction).
  mutable size_t PrunedSubtrees = 0;
  mutable size_t PrunedAdaptations = 0;
  mutable size_t PrunedPermutationProbes = 0;
  mutable size_t PrunedCandidates = 0;

  size_t prunedCalls() const {
    return PrunedSubtrees + PrunedAdaptations + PrunedPermutationProbes +
           PrunedCandidates;
  }

private:
  size_t influenceInside(const caml::Expr &Root) const;
  bool diffConfined(const caml::Expr &Orig, const caml::Expr &Repl) const;
  bool diffConfinedIds(const caml::Expr &Orig, caml::AstArena::ExprId OrigId,
                       const caml::Expr &Repl, caml::AstArena::ExprId ReplId,
                       const caml::AstArena &Arena) const;

  std::unordered_set<const caml::Expr *> InfluenceExprs;
  std::unordered_set<const caml::Expr *> CoreExprs;
  /// Every node inside a core subtree plus every ancestor of a core node:
  /// exactly the nodes whose subtree overlaps some core subtree. A node
  /// outside this closure may be pruned under the witness rule.
  std::unordered_set<const caml::Expr *> CoreClosureExprs;
  /// Component constraints outside any focus subtree (prefix decls or the
  /// focus declaration's header); disables adaptation pruning.
  bool ComponentEscapes = false;
  /// ErrorSlice::CoreWitnessOk: enables the core-closure pruning rule.
  bool WitnessOk = false;
};

} // namespace analysis
} // namespace seminal

#endif // SEMINAL_ANALYSIS_SLICEGUIDE_H
