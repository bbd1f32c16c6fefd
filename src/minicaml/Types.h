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
/// "unit", "exn", "list", "ref", "option", and user-declared names.
///
/// A type is a small, trivially destructible node carved from a
/// TypeArena: its constructor name is interned (TypeNames), so names
/// compare by pointer, and its arguments are a span in the same arena's
/// storage. Building, unifying and rolling back types allocates nothing
/// per type; an arena's chunks outlive rewindTo and are reused by the
/// next allocations. The one type graph shared across type-check
/// invocations is the standard-library environment (Infer.cpp), which no
/// run ever writes.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_MINICAML_TYPES_H
#define SEMINAL_MINICAML_TYPES_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace seminal {
namespace caml {

/// Level marking a variable as generalized (quantified).
constexpr int GenericLevel = std::numeric_limits<int>::max();

/// An interned type-constructor name. Within one environment (a run on
/// top of the standard-library base) every constructor carrying a given
/// name points at the same characters, so two names are equal iff the
/// pointers are.
using TypeName = const char *;

/// The builtin constructor names, shared by every environment. Inline
/// variables have one address program-wide, which is what makes pointer
/// comparison against them valid.
namespace tyname {
inline constexpr char Arrow[] = "->";
inline constexpr char Tuple[] = "*";
inline constexpr char Int[] = "int";
inline constexpr char Bool[] = "bool";
inline constexpr char String[] = "string";
inline constexpr char Unit[] = "unit";
inline constexpr char Exn[] = "exn";
inline constexpr char List[] = "list";
inline constexpr char Ref[] = "ref";
inline constexpr char Option[] = "option";
} // namespace tyname

/// Interns the constructor names an environment declares. Lookups try
/// the builtins, then this table's own names, so a program redeclaring a
/// builtin type name (`type list = ...`) gets the builtin's pointer, as
/// string comparison would have had it. The standard library declares
/// builtin types only, so every run starts with an empty table.
class TypeNames {
public:
  TypeNames() = default;
  TypeNames(const TypeNames &) = delete;
  TypeNames &operator=(const TypeNames &) = delete;

  /// The interned copy of \p Name, added to this table if no table
  /// holds it yet.
  TypeName intern(const std::string &Name);

private:
  TypeName find(const std::string &Name) const;

  /// Node-based, so the characters of an entry never move.
  std::unordered_set<std::string> Own;
};

/// A semantic type node. Mutable on purpose: unification links variables
/// in place (union-find with path compression in prune()). A constructor's
/// NumArgs argument pointers follow the node in its arena (TypeArena::con
/// allocates them together), so a node is 32 bytes whatever its arity.
struct Type {
  enum class Kind : uint8_t { Var, Con };

  Kind TheKind = Kind::Var;
  uint32_t NumArgs = 0; ///< Con: the number of arguments.

  // Var payload.
  int VarId = 0;
  int Level = 0;
  Type *Link = nullptr; ///< Non-null once the variable is bound.

  // Con payload.
  TypeName Name = nullptr;

  std::span<Type *const> args() const {
    return {reinterpret_cast<Type *const *>(
                reinterpret_cast<const std::byte *>(this) + sizeof(Type)),
            NumArgs};
  }
  Type *arg(size_t I) const {
    assert(I < NumArgs && "type argument out of range");
    return args()[I];
  }

  bool isVar() const { return TheKind == Kind::Var; }
  bool isCon(TypeName N) const { return TheKind == Kind::Con && Name == N; }
  bool isArrow() const { return isCon(tyname::Arrow); }
};

/// Undo log for in-place type mutations. While a trail is installed (see
/// TypeTrailScope) every Link and Level write performed by unification,
/// path compression, level adjustment, and generalization is recorded, so
/// undoAll() restores the type graph to its state at scope entry. This is
/// what lets a checkpointed inference environment (Infer.h) be reused
/// across thousands of oracle calls: each call's unifications against the
/// shared prefix environment are rolled back instead of rebuilding the
/// environment from scratch.
/// Each inferencer owns one trail and reuses its capacity from query to
/// query.
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

  /// Forgets every record without restoring anything: the writes are
  /// committed.
  void clear() {
    Links.clear();
    Levels.clear();
  }

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

/// Bump allocator for Type nodes and their argument spans; owns
/// everything it creates. Storage is a list of chunks, each twice the
/// size of the one before up to a cap; rewindTo moves the allocation
/// cursor back and keeps the chunks, so the next allocations reuse them.
/// Rewound space is poisoned in AddressSanitizer builds, so reading a
/// type a rewind freed is reported as it would be for freed heap memory.
class TypeArena {
public:
  TypeArena() = default;
  /// An arena whose variable ids start at \p FirstVarId, after those of
  /// an arena whose types it is used alongside.
  explicit TypeArena(int FirstVarId) : NextVarId(FirstVarId) {}
  ~TypeArena();
  TypeArena(const TypeArena &) = delete;
  TypeArena &operator=(const TypeArena &) = delete;

  /// A position in the arena's allocation sequence.
  struct Mark {
    size_t Chunk = 0; ///< Chunk holding the cursor.
    size_t Used = 0;  ///< Bytes of that chunk in use.
    size_t Nodes = 0;
    int NextVarId = 0;
  };

  Mark mark() const { return {Cur, Used, Nodes, NextVarId}; }

  /// Frees every node allocated after \p M. The caller must guarantee no
  /// surviving type references the freed nodes (a TypeTrail rollback of
  /// everything unified since the mark establishes exactly that).
  void rewindTo(const Mark &M);

  /// Fresh unification variable at \p Level.
  Type *freshVar(int Level);

  /// Constructor application; \p Args are copied into the arena.
  Type *con(TypeName Name, std::span<Type *const> Args);
  Type *con(TypeName Name, std::initializer_list<Type *> Args = {}) {
    return con(Name, std::span<Type *const>(Args.begin(), Args.size()));
  }

  // Shorthands for the pervasive builtins.
  Type *intType() { return con(tyname::Int); }
  Type *boolType() { return con(tyname::Bool); }
  Type *stringType() { return con(tyname::String); }
  Type *unitType() { return con(tyname::Unit); }
  Type *exnType() { return con(tyname::Exn); }
  Type *listOf(Type *Elem) { return con(tyname::List, {Elem}); }
  Type *refOf(Type *Elem) { return con(tyname::Ref, {Elem}); }
  Type *arrow(Type *From, Type *To) { return con(tyname::Arrow, {From, To}); }

  /// Nodes allocated and not rewound.
  size_t numAllocated() const { return Nodes; }

private:
  struct Chunk {
    std::unique_ptr<std::byte[]> Mem;
    size_t Size = 0;
  };

  /// \p Bytes (a multiple of the node alignment) of fresh storage.
  void *allocate(size_t Bytes) {
    if (Cur >= Chunks.size() || Used + Bytes > Chunks[Cur].Size)
      nextChunk(Bytes);
    std::byte *P = Chunks[Cur].Mem.get() + Used;
    Used += Bytes;
    unpoison(P, Bytes);
    return P;
  }
  /// Moves the cursor to the start of a chunk of at least \p Bytes: the
  /// one after the cursor if a rewind kept it and it is large enough,
  /// else a new one, twice the size of the cursor's up to the cap.
  void nextChunk(size_t Bytes);
  static void poison(std::byte *P, size_t Bytes);
  static void unpoison(std::byte *P, size_t Bytes);

  std::vector<Chunk> Chunks;
  size_t Cur = 0;  ///< Chunk holding the cursor (Chunks.size() if none).
  size_t Used = 0; ///< Bytes of Chunks[Cur] in use.
  size_t Nodes = 0;
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
