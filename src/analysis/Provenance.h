//===- Provenance.h - Constraint provenance recording -----------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constraint provenance for error slicing (DESIGN.md section 9). While a
/// ProvenanceSink is installed, the inference hooks in minicaml record
///
///   * which AST node induced each variable binding performed by unify(),
///   * which AST node allocated each type term,
///   * the generic-to-fresh variable substitutions made by instantiate()
///     (the one place pointer identity is broken between a generalized
///     type and its per-use copy), and
///   * the first constructor clash / occurs failure,
///
/// enough for analysis::computeErrorSlice to reconstruct the connected
/// component of the constraint graph that is jointly unsatisfiable, and
/// map it back to program points.
///
/// Null-sink discipline (the support/Trace pattern): the hooks are always
/// compiled into Unify.cpp / Types.cpp / Infer.cpp, but with no sink
/// installed -- the default everywhere outside computeErrorSlice -- each
/// hook costs one thread-local pointer test. Inference behavior is never
/// altered; recording is strictly observational.
///
/// This header is include-only (no analysis library symbols) so the
/// minicaml library can host the hooks without a dependency cycle:
/// analysis links against minicaml, never the reverse.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_ANALYSIS_PROVENANCE_H
#define SEMINAL_ANALYSIS_PROVENANCE_H

#include "minicaml/Types.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace seminal {
namespace analysis {

/// What kind of AST node a provenance tag points at. The tag is a void
/// pointer because minicaml's Expr/Pattern/Decl are not needed here; the
/// slicer knows which tree it walked and casts back.
enum class ProvenanceNodeKind : uint8_t {
  None,    ///< No node in scope (e.g. stdlib setup).
  Expr,    ///< caml::Expr
  Pattern, ///< caml::Pattern
  Decl,    ///< caml::Decl (decl-header constraints: bindings, params)
};

/// The AST node whose constraints are currently being generated.
struct ProvenanceTag {
  const void *Node = nullptr;
  ProvenanceNodeKind Kind = ProvenanceNodeKind::None;
};

/// Recorded constraint events, replayed by the slicer's closure pass.
///
/// Lifetime discipline: type-graph structure is flattened into each event
/// AT RECORD TIME, when the pointers are live. The slicer runs after
/// inference has rolled back (and the arena has rewound), so recorded
/// Type pointers are used strictly as opaque identities -- never
/// dereferenced again. Flattening-at-event-time loses nothing: every
/// later binding of a variable seen here is its own event, and the
/// closure composes connectivity through the shared variable object.
class ProvenanceSink {
public:
  /// One constraint event, pre-flattened. Two events belong to the same
  /// constraint-graph component iff they (transitively) share a variable
  /// object in Vars.
  struct Event {
    std::vector<const caml::Type *> Vars; ///< Variable nodes touched.
    std::vector<const caml::Type *> Cons; ///< Constructor nodes touched.
    ProvenanceTag Tag; ///< Node in scope when the event happened.
  };

  /// First failure observed (inference aborts at the first error, so
  /// there is at most one). The clash is seeded into the closure as an
  /// extra event (index ~0u).
  struct Clash {
    bool Present = false;
    bool Cyclic = false;
    Event Seed;
    /// Rendered at clash time. May show partial bindings of the failed
    /// attempt; prefer the TypecheckResult's post-rollback rendering.
    std::string Left, Right;
  };

  void recordBinding(caml::Type *Var, caml::Type *Target,
                     const ProvenanceTag &Tag) {
    Event E;
    E.Tag = Tag;
    Scratch.clear();
    flattenRec(Var, E);
    flattenRec(Target, E);
    Events.push_back(std::move(E));
  }

  void recordCopy(caml::Type *Generic, caml::Type *Fresh,
                  const ProvenanceTag &Tag) {
    Event E;
    E.Tag = Tag;
    Scratch.clear();
    flattenRec(Generic, E);
    flattenRec(Fresh, E);
    Events.push_back(std::move(E));
  }

  void recordAlloc(const caml::Type *T, const ProvenanceTag &Tag) {
    if (Tag.Node)
      Allocs.emplace(T, Tag);
  }

  void recordClash(caml::Type *A, caml::Type *B, bool Cyclic,
                   const ProvenanceTag &Tag) {
    if (TheClash.Present)
      return; // Keep the first failure only.
    TheClash.Present = true;
    TheClash.Cyclic = Cyclic;
    TheClash.Seed.Tag = Tag;
    Scratch.clear();
    flattenRec(A, TheClash.Seed);
    flattenRec(B, TheClash.Seed);
    auto [L, R] = caml::typesToStrings(A, B);
    TheClash.Left = L;
    TheClash.Right = R;
  }

  /// Folds the ORIGINAL (pre-resolution) operands of the failed top-level
  /// unification into the clash seed. The nested clash fires after prune()
  /// has resolved past the variable links, so the seed alone may contain
  /// no variables at all -- and the closure connects through variables
  /// only. The unpruned operands recover the links.
  void recordClashContext(caml::Type *A, caml::Type *B) {
    if (!TheClash.Present || ClashContextDone)
      return;
    ClashContextDone = true;
    Scratch.clear();
    for (const caml::Type *T : TheClash.Seed.Vars)
      Scratch.insert(T);
    for (const caml::Type *T : TheClash.Seed.Cons)
      Scratch.insert(T);
    flattenRec(A, TheClash.Seed);
    flattenRec(B, TheClash.Seed);
  }

  bool hasClash() const { return TheClash.Present; }

  std::vector<Event> Events;
  /// Type term -> AST node that allocated it (tagged allocations only).
  std::unordered_map<const caml::Type *, ProvenanceTag> Allocs;
  /// Named constructor -> name, for the slice's involved-types report
  /// (structural "->"/"*" constructors are skipped).
  std::unordered_map<const caml::Type *, std::string> ConNames;
  Clash TheClash;

private:
  /// Collects every node reachable from \p T through links and arguments
  /// into \p E. Scratch (cleared per event) guards against re-visiting
  /// shared subterms (type graphs are DAGs under the occurs check).
  void flattenRec(caml::Type *T, Event &E) {
    if (!T || !Scratch.insert(T).second)
      return;
    if (T->isVar()) {
      E.Vars.push_back(T);
      if (T->Link)
        flattenRec(T->Link, E);
      return;
    }
    E.Cons.push_back(T);
    if (!T->isArrow() && !T->isCon(caml::tyname::Tuple))
      ConNames.emplace(T, T->Name);
    for (caml::Type *Arg : T->args())
      flattenRec(Arg, E);
  }

  std::unordered_set<const caml::Type *> Scratch;
  bool ClashContextDone = false;
};

namespace detail {
/// The sink recording this thread's inference, or null (the default).
inline thread_local ProvenanceSink *Sink = nullptr;
/// The AST node whose constraints are currently being generated.
inline thread_local ProvenanceTag CurrentTag{};
} // namespace detail

inline ProvenanceSink *activeProvenanceSink() { return detail::Sink; }
inline const ProvenanceTag &currentProvenanceTag() {
  return detail::CurrentTag;
}

/// RAII: installs \p S as this thread's active sink. Nesting restores the
/// previous sink (and tag) on destruction.
class ProvenanceScope {
public:
  explicit ProvenanceScope(ProvenanceSink &S)
      : PrevSink(detail::Sink), PrevTag(detail::CurrentTag) {
    detail::Sink = &S;
    detail::CurrentTag = ProvenanceTag{};
  }
  ~ProvenanceScope() {
    detail::Sink = PrevSink;
    detail::CurrentTag = PrevTag;
  }
  ProvenanceScope(const ProvenanceScope &) = delete;
  ProvenanceScope &operator=(const ProvenanceScope &) = delete;

private:
  ProvenanceSink *PrevSink;
  ProvenanceTag PrevTag;
};

/// RAII: marks \p Node as the constraint source for the dynamic extent.
/// With no sink installed the constructor is a single thread-local read.
class ProvenanceNodeScope {
public:
  ProvenanceNodeScope(const void *Node, ProvenanceNodeKind Kind) {
    if (!detail::Sink)
      return;
    Installed = true;
    Prev = detail::CurrentTag;
    detail::CurrentTag = {Node, Kind};
  }
  ~ProvenanceNodeScope() {
    if (Installed)
      detail::CurrentTag = Prev;
  }
  ProvenanceNodeScope(const ProvenanceNodeScope &) = delete;
  ProvenanceNodeScope &operator=(const ProvenanceNodeScope &) = delete;

private:
  bool Installed = false;
  ProvenanceTag Prev;
};

// Hook bodies, called from minicaml with the sink already tested.
inline void hookBinding(caml::Type *Var, caml::Type *Target) {
  if (ProvenanceSink *S = detail::Sink)
    S->recordBinding(Var, Target, detail::CurrentTag);
}
inline void hookCopy(caml::Type *Generic, caml::Type *Fresh) {
  if (ProvenanceSink *S = detail::Sink)
    S->recordCopy(Generic, Fresh, detail::CurrentTag);
}
inline void hookAlloc(caml::Type *T) {
  if (ProvenanceSink *S = detail::Sink)
    S->recordAlloc(T, detail::CurrentTag);
}
inline void hookClash(caml::Type *A, caml::Type *B, bool Cyclic) {
  if (ProvenanceSink *S = detail::Sink)
    S->recordClash(A, B, Cyclic, detail::CurrentTag);
}
inline void hookClashContext(caml::Type *A, caml::Type *B) {
  if (ProvenanceSink *S = detail::Sink)
    S->recordClashContext(A, B);
}

} // namespace analysis
} // namespace seminal

#endif // SEMINAL_ANALYSIS_PROVENANCE_H
