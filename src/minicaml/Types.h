//===- Types.h - Mini-Caml semantic types -----------------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic types for Hindley-Milner inference. A type is either a
/// unification variable (with a mutable link and a level for efficient
/// let-generalization, following Remy) or a constructor application. All
/// structural types are constructor applications with reserved names:
/// "->" (arity 2), "*" (tuples, arity >= 2), plus "int", "bool", "string",
/// "unit", "exn", "list", "ref", and user-declared names.
///
/// Types are arena-allocated; each oracle call runs inference in a fresh
/// arena. The one type graph shared across type-check invocations is the
/// standard-library environment (Infer.cpp), which no run ever writes.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_TYPES_H
#define SEMINAL_MINICAML_TYPES_H

#include <cassert>
#include <deque>
#include <limits>
#include <string>
#include <vector>

namespace seminal {
namespace caml {

/// Level marking a variable as generalized (quantified).
constexpr int GenericLevel = std::numeric_limits<int>::max();

/// A semantic type node. Mutable on purpose: unification links variables
/// in place (union-find with path compression in prune()).
struct Type {
  enum class Kind { Var, Con };

  Kind TheKind;

  // Var payload.
  int VarId = 0;
  int Level = 0;
  Type *Link = nullptr; ///< Non-null once the variable is bound.

  // Con payload.
  std::string Name;
  std::vector<Type *> Args;

  bool isVar() const { return TheKind == Kind::Var; }
  bool isCon(const std::string &N) const {
    return TheKind == Kind::Con && Name == N;
  }
  bool isArrow() const { return isCon("->"); }
};

/// Undo log for in-place type mutations. While a trail is installed (see
/// TypeTrailScope) every Link and Level write performed by unification,
/// path compression, level adjustment, and generalization is recorded, so
/// undoAll() restores the type graph to its state at scope entry. This is
/// what lets a checkpointed inference environment (Infer.h) be reused
/// across thousands of oracle calls: each call's unifications against the
/// shared prefix environment are rolled back instead of rebuilding the
/// environment from scratch.
class TypeTrail {
public:
  void recordLink(Type *V, Type *Old) { Links.emplace_back(V, Old); }
  void recordLevel(Type *V, int Old) { Levels.emplace_back(V, Old); }

  /// A position in the trail, for partial rollback (undoTo).
  struct Mark {
    size_t Links = 0;
    size_t Levels = 0;
  };
  Mark mark() const { return {Links.size(), Levels.size()}; }

  /// Restores every recorded write, newest first, and clears the trail.
  void undoAll();

  /// Restores writes recorded after \p M, newest first, and truncates the
  /// trail back to \p M. Lets a caller undo one failed unification without
  /// disturbing the enclosing checkpoint's rollback log.
  void undoTo(const Mark &M);

  bool empty() const { return Links.empty() && Levels.empty(); }

private:
  std::vector<std::pair<Type *, Type *>> Links;
  std::vector<std::pair<Type *, int>> Levels;
};

/// RAII: installs a trail as the active one for the current thread.
/// Nesting restores the previous trail on destruction.
class TypeTrailScope {
public:
  explicit TypeTrailScope(TypeTrail &Trail);
  ~TypeTrailScope();
  TypeTrailScope(const TypeTrailScope &) = delete;
  TypeTrailScope &operator=(const TypeTrailScope &) = delete;

private:
  TypeTrail *Prev;
};

/// The trail currently recording this thread's type mutations, or null.
TypeTrail *activeTypeTrail();

/// Bump allocator for Type nodes; owns everything it creates.
class TypeArena {
public:
  TypeArena() = default;
  /// An arena whose variable ids start at \p FirstVarId, after those of
  /// an arena whose types it is used alongside.
  explicit TypeArena(int FirstVarId) : NextVarId(FirstVarId) {}
  TypeArena(const TypeArena &) = delete;
  TypeArena &operator=(const TypeArena &) = delete;

  /// A position in the arena's allocation sequence.
  struct Mark {
    size_t Nodes = 0;
    int NextVarId = 0;
  };

  Mark mark() const { return {Nodes.size(), NextVarId}; }

  /// Frees every node allocated after \p M. The caller must guarantee no
  /// surviving type references the freed nodes (a TypeTrail rollback of
  /// everything unified since the mark establishes exactly that).
  void rewindTo(const Mark &M);

  /// Fresh unification variable at \p Level.
  Type *freshVar(int Level);

  /// Constructor application.
  Type *con(const std::string &Name, std::vector<Type *> Args = {});

  // Shorthands for the pervasive builtins.
  Type *intType() { return con("int"); }
  Type *boolType() { return con("bool"); }
  Type *stringType() { return con("string"); }
  Type *unitType() { return con("unit"); }
  Type *exnType() { return con("exn"); }
  Type *listOf(Type *Elem) { return con("list", {Elem}); }
  Type *refOf(Type *Elem) { return con("ref", {Elem}); }
  Type *arrow(Type *From, Type *To) { return con("->", {From, To}); }
  Type *tuple(std::vector<Type *> Elems) {
    assert(Elems.size() >= 2 && "tuple type needs at least two components");
    return con("*", std::move(Elems));
  }
  /// Builds From1 -> ... -> FromN -> To.
  Type *arrowChain(const std::vector<Type *> &Froms, Type *To);

  size_t numAllocated() const { return Nodes.size(); }

private:
  std::deque<Type> Nodes;
  int NextVarId = 0;
};

/// Follows variable links to the representative, compressing paths.
Type *prune(Type *T);

/// \returns true if variable \p Var occurs in \p T (after pruning).
/// Also lowers the levels of variables in \p T to \p Var's level, the
/// side-effect Remy's algorithm needs during binding.
bool occursAndAdjust(Type *Var, Type *T);

/// Renders \p T with canonical 'a, 'b, ... names assigned in first-visit
/// order, mimicking OCaml's printer ("int -> int -> int",
/// "('a -> 'b) -> 'a list -> 'b list").
std::string typeToString(Type *T);

/// Renders two types with a shared variable-naming context, so an error
/// message's actual/expected pair uses consistent names.
std::pair<std::string, std::string> typesToStrings(Type *A, Type *B);

} // namespace caml
} // namespace seminal

#endif // SEMINAL_MINICAML_TYPES_H
