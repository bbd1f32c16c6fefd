//===- Infer.h - Hindley-Milner type inference for mini-Caml ----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm W with Remy-style levels, the value restriction, user variant
/// and record types, and OCaml-compatible *blame*: expected types propagate
/// downward (function arguments are checked against the callee's domain,
/// match arms against the first arm's type, ...), so the first unification
/// failure is reported at the same place OCaml 3.x reports it. That makes
/// this checker a faithful stand-in for the paper's oracle *and* for the
/// conventional error messages the evaluation compares against:
///
///   - Figure 2 blames `x + y` ("has type int but is here used with type
///     'a -> 'b") even though the real bug is the tupled parameter;
///   - Figure 8 blames `s` with the bewildering `string list list`;
///   - Figure 9 reports nothing inside `finalLst` and blames the call site.
///
/// The checker aborts at the first error (like OCaml) and reports it with
/// a source span; the search procedure only needs the boolean.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_INFER_H
#define SEMINAL_MINICAML_INFER_H

#include "minicaml/Ast.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace seminal {
namespace caml {

/// A conventional type-checker diagnostic.
struct TypeError {
  enum class Kind {
    Mismatch,        ///< has type X but is here used with type Y
    PatternMismatch, ///< pattern matches values of type X, expected Y
    Unbound,         ///< unbound value / constructor / field / type
    NotFunction,     ///< expression is not a function, cannot be applied
    TooManyArgs,     ///< function applied to too many arguments
    ConstructorArity,
    NotMutable,
    RecordShape, ///< missing/foreign fields in a record literal
    Cyclic,      ///< occurs-check failure
  };

  Kind TheKind = Kind::Mismatch;
  SourceSpan Span;
  std::string Message; ///< Fully rendered, OCaml style.
  std::string ActualType;
  std::string ExpectedType;
  std::string Name; ///< Offending identifier for Unbound and friends.
};

/// Options for one type-check run.
struct TypecheckOptions {
  /// If set, the run records the inferred type of this node (used when a
  /// message prints "of type int -> int -> int" for a replacement).
  const Expr *QueryNode = nullptr;

  /// Check only the first DeclLimit declarations (the default checks the
  /// whole program). The error slicer uses this to re-infer exactly the
  /// prefix plus the failing declaration under a provenance sink.
  unsigned DeclLimit = ~0u;
};

/// Result of type-checking a whole program.
struct TypecheckResult {
  std::optional<TypeError> Error;
  /// Index of the declaration the error was reported in (set iff Error
  /// and the run processed whole-program declarations). Because
  /// declarations are checked in order and the checker aborts at the
  /// first error, every prefix of length <= ErrorDeclIndex type-checks
  /// and the prefix of length ErrorDeclIndex + 1 does not.
  std::optional<unsigned> ErrorDeclIndex;
  /// Name -> rendered type of every top-level let binding (in order).
  std::vector<std::pair<std::string, std::string>> TopLevelTypes;
  /// Rendered type of Options::QueryNode, if requested and reached.
  std::optional<std::string> QueriedType;
  /// Number of type allocations; a cheap effort metric. Counts this
  /// run's own allocations only: the standard-library environment is
  /// built once per process and shared, so it is excluded (an empty
  /// program allocates 0).
  size_t TypesAllocated = 0;

  bool ok() const { return !Error.has_value(); }
};

/// Type-checks \p Prog against the standard library environment, which
/// is built once per process and shared read-only by every run.
TypecheckResult typecheckProgram(const Program &Prog,
                                 const TypecheckOptions &Opts = {});

/// A reusable typing-environment snapshot taken after inferring the first
/// k declarations of a program on top of the shared standard library.
/// Once built, it answers "does declaration D type-check as declaration
/// k+1?" without re-inferring the prefix: the declaration is checked
/// against the cached environment and every unification side effect is
/// rolled back through a TypeTrail, so the snapshot can serve an
/// unbounded number of queries.
///
/// Validity rules (see DESIGN.md "Oracle acceleration"):
///   * the prefix declarations must not be mutated while the checkpoint is
///     alive -- the snapshot aliases nothing from them, but a caller that
///     edits the prefix is asking questions about a different program;
///   * only Let declarations may be queried (type/exception declarations
///     mutate the global constructor tables, which are not trailed);
///   * a checkpoint is single-threaded -- concurrent queries need one
///     checkpoint per thread.
class InferenceCheckpoint {
public:
  /// Infers the first \p PrefixLen declarations of \p Prog and snapshots
  /// the resulting environment. \returns null if the prefix itself fails
  /// to type-check (no snapshot can be trusted past the first error).
  static std::unique_ptr<InferenceCheckpoint> create(const Program &Prog,
                                                     unsigned PrefixLen);

  ~InferenceCheckpoint();

  unsigned prefixLength() const { return PrefixLen; }

  /// Type-checks \p D as the declaration following the snapshot's prefix.
  /// \p D must be a Let declaration. All side effects are rolled back
  /// before returning, so the checkpoint stays valid. The result's
  /// TypesAllocated reports only this query's allocations.
  TypecheckResult checkDecl(const Decl &D, const TypecheckOptions &Opts = {});

  /// The oracle's question: checkDecl's inference, with the same verdict,
  /// TypesAllocated and rendered type of \p QueryNode, but a failure's
  /// Error carries only its kind and span -- no message or type is
  /// rendered for a caller that reads the verdict alone.
  TypecheckResult queryDecl(const Decl &D, const Expr *QueryNode = nullptr);

  /// Permanently extends the prefix with \p D (any declaration kind).
  /// On success the declaration's bindings are committed and
  /// prefixLength() grows by one; on failure every unification side
  /// effect is rolled back and the prefix is unchanged. \p TypesAllocated,
  /// when non-null, receives this call's allocation count.
  ///
  /// Caveat: a *failed* type/exception declaration may leave partial
  /// entries in the constructor/record tables (those are not trailed), so
  /// after extendWith returns false for a non-Let declaration the
  /// checkpoint must be discarded. A failed Let rolls back completely.
  bool extendWith(const Decl &D, size_t *TypesAllocated = nullptr);

private:
  InferenceCheckpoint();

  struct Impl;
  std::unique_ptr<Impl> TheImpl;
  unsigned PrefixLen = 0;
};

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_INFER_H
