//===- CheckpointedOracle.h - Accelerated type-check oracle -----*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle acceleration layer. The searcher only ever edits the single
/// failing declaration found by prefix localization (Section 2.1), so of
/// the up-to-200,000 oracle calls a search may issue, almost all ask about
/// programs that differ from each other in exactly one declaration. This
/// oracle exploits that while preserving black-box semantics bit-for-bit
/// (CamlOracle's verdicts and logical-call counts), with one typing
/// environment per request:
///
///   * The conventional run -- conventionalError() grows the environment
///     one declaration at a time (InferenceCheckpoint::extendWith) and
///     stops at the first failure, whose rendered error is the checker's
///     message. It records, by pointer, the declarations it proved good
///     and the one that failed on top of them.
///   * Known-prefix answers -- every call before the seed (the searcher's
///     opening whole-program probe and its localization walk, "do the
///     first k declarations type-check?") asks about a prefix of that
///     record, and is answered from it without inference (CacheHits).
///   * The seed -- seedPrefix() adopts the environment, which covers
///     exactly the prefix before the failing declaration; each candidate
///     call then re-infers only the edited declaration against it, rolling
///     back unification side effects through a TypeTrail
///     (InferenceCheckpoint::queryDecl). This is the one
///     candidate-evaluation path: no memo lookup and no interning.
///
/// A caller that probes or seeds without the conventional run gets full
/// inference, or a fresh snapshot of the prefix, and the same verdicts.
///
/// The oracle keeps references to the declarations it was asked about,
/// not clones: a program's declarations are shared and immutable (the
/// searcher edits only its own clone of the failing one, which no oracle
/// state refers to), so a reference is as good as a snapshot, and a
/// pointer it holds can never be reused by another declaration.
///
/// Server mode (setSessionRetention) keeps the environment across
/// requests: clearPrefix() leaves it in place, and the next request's
/// conventional run starts from it when the declarations it covers are
/// Decl::equals (spans ignored) to the request's first ones
/// (SessionPrefixHits counts those declarations), so its seed comes from
/// the session too (SessionSeedAdoptions). Verdicts and ranked
/// suggestions stay bit-identical to a cold run; only the work changes.
/// retainedBytes() is what that environment holds, the level a daemon
/// session's eviction watermark is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_CHECKPOINTEDORACLE_H
#define SEMINAL_CORE_CHECKPOINTEDORACLE_H

#include "core/Oracle.h"

#include <memory>
#include <vector>

namespace seminal {

/// Drop-in replacement for CamlOracle with the acceleration layer.
class CheckpointedOracle : public Oracle {
public:
  /// Ignores both parameters, which perfbench passes (ROADMAP item 7).
  explicit CheckpointedOracle(const OracleAccelOptions & = {},
                              std::shared_ptr<caml::AstArena> = nullptr);
  ~CheckpointedOracle() override;

  /// Always null; perfbench still calls it (ROADMAP item 7).
  std::shared_ptr<caml::AstArena> arena() const { return nullptr; }

  // Oracle interface --------------------------------------------------------
  std::optional<caml::TypeError>
  conventionalError(const caml::Program &Prog) override;
  void seedPrefix(const caml::Program &Prog, unsigned EditedDecl) override;
  void clearPrefix() override;
  size_t inferenceRuns() const override { return Counters.inferenceRuns(); }

  // Session retention (server mode) -----------------------------------------
  /// Keep the environment across requests (see the file comment). Toggle
  /// between requests, never mid-request; turning it off drops the
  /// retained state.
  void setSessionRetention(bool Enabled);

  /// Ignored; perfbench still calls it (ROADMAP item 7).
  void primeConventional(std::string) {}

  /// Drops every piece of retained session state.
  void resetSession();

  /// Bytes held for the next request in session mode: the type-arena
  /// chunks of the environment. Zero otherwise.
  uint64_t retainedBytes() const;

protected:
  bool typecheckImpl(const caml::Program &Prog) override;
  std::optional<std::string> typeOfNodeImpl(const caml::Program &Prog,
                                            const caml::Expr *Node) override;

private:
  /// True when \p Prog is "seed prefix + one edited let declaration".
  bool matchesSeed(const caml::Program &Prog) const;

  /// The verdict on \p Prog when its declarations are, object for
  /// object, a prefix of Good followed by Failing; nullopt otherwise.
  std::optional<bool> knownVerdict(const caml::Program &Prog) const;

  /// Runs and counts inference for \p Prog: of its edited declaration
  /// against the seed when \p Seed (Prog matchesSeed), else of the whole
  /// program. Records \p QueryNode's type on success.
  caml::TypecheckResult infer(const caml::Program &Prog, bool Seed,
                              const caml::Expr *QueryNode);

  bool SessionRetention = false;

  /// The one environment: Good inferred in order on top of the standard
  /// library. Null when no run built one, or when a failed type or
  /// exception declaration left partial constructor entries in it.
  std::unique_ptr<caml::InferenceCheckpoint> Env;
  /// Declarations known to type-check, in order, held by reference:
  /// exactly what Env covers when it is set.
  std::vector<caml::DeclPtr> Good;
  /// The declaration known to fail on top of Good; null when none is.
  caml::DeclPtr Failing;
  /// Env was taken over from an earlier request of the session.
  bool FromSession = false;

  // Seed state (valid between seedPrefix and clearPrefix) -------------------
  bool Seeded = false;
  unsigned EditedIndex = 0;
};

} // namespace seminal

#endif // SEMINAL_CORE_CHECKPOINTEDORACLE_H
