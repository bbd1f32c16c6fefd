//===- Mutation.h - Error seeds for the synthetic corpus --------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper evaluated on 1075 real ill-typed student files we do not
/// have. This module substitutes for them: it injects realistic mistakes
/// into well-typed "assignment" programs. The mutation catalog is drawn
/// from the error kinds the paper itself documents (Figures 2, 3, 8, 9
/// and the Section 3.3 anecdotes): curried-vs-tupled confusion, swapped
/// arguments, missing/extra arguments, misspelled identifiers, `+` on
/// strings, comma lists, missing `rec`, forgotten dereferences, and so
/// on. Each mutation records ground truth (location + inverse edit) so
/// the automated judge can score messages the way the authors scored
/// them by hand.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORPUS_MUTATION_H
#define SEMINAL_CORPUS_MUTATION_H

#include "minicaml/Ast.h"
#include "support/Rng.h"

#include <optional>
#include <string>
#include <vector>

namespace seminal {

/// The kinds of mistakes the corpus injects.
enum class MutationKind {
  SwapCallArgs,     ///< f a b -> f b a (the Figure 8 mistake)
  TupleCurriedFun,  ///< fun x y -> e  ->  fun (x, y) -> e (Figure 2)
  CurryTupledFun,   ///< fun (x, y) -> e  ->  fun x y -> e
  CallWithTuple,    ///< f a b -> f (a, b)
  DropCallArg,      ///< f a b -> f a (the Figure 9 mistake)
  ExtraCallArg,     ///< f a -> f a a
  MisspellVar,      ///< strlen -> strlenn (Section 3.3's print)
  PlusOnStrings,    ///< a ^ b -> a + b
  CommaList,        ///< [a; b; c] -> [a, b, c] (Section 5.3)
  MissingRec,       ///< let rec f = ... -> let f = ...
  IntForString,     ///< "s" -> 0
  CondNotBool,      ///< if c then -> if 1 then
  ConsForAppend,    ///< a @ b -> a :: b
  MissingDeref,     ///< !r -> r
};

/// Renders the kind for reports.
std::string mutationKindName(MutationKind Kind);

/// Number of distinct mutation kinds (for sweeps).
constexpr int NumMutationKinds = 14;

/// Ground truth for one injected mistake, expressed against the
/// *reparsed* mutated program (print + parse normalizes spans).
struct GroundTruth {
  MutationKind Kind;
  /// Path of the mutated node. For declaration-level mutations
  /// (MissingRec) the path has no steps.
  caml::NodePath Path;
  /// Rendered before/after of the mutated node.
  std::string Before;
  std::string After;
};

/// Result of mutating a program.
struct MutationResult {
  caml::Program Mutated;
  std::vector<GroundTruth> Truths;
};

/// Applies \p Count mutations (best effort -- fewer if the program lacks
/// applicable sites) to a copy of \p Template, ensuring the result does
/// NOT type-check. The copy shares \p Template's unmutated declarations. \returns nullopt if no failing mutant could be built
/// (rare; caller resamples).
std::optional<MutationResult> mutateProgram(const caml::Program &Template,
                                            unsigned Count, Rng &R);

/// Applies one specific mutation kind at a random applicable site.
/// Exposed for tests; does not verify ill-typedness.
std::optional<MutationResult> applyOneMutation(const caml::Program &Template,
                                               MutationKind Kind, Rng &R);

} // namespace seminal

#endif // SEMINAL_CORPUS_MUTATION_H
