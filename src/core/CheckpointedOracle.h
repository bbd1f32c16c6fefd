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
/// (same verdicts, same logical-call counts):
///
///   * Prefix-environment checkpointing -- after seedPrefix(), the typing
///     environment of the unedited declarations is inferred once and
///     reused; each call re-infers only the edited declaration, rolling
///     back unification side effects through a TypeTrail. This is the one
///     candidate-evaluation path: a seeded call goes from matchesSeed()
///     straight to InferenceCheckpoint::queryDecl(), with no memo lookup
///     and no interning in between (keying a verdict cache cost more than
///     the inference it saved).
///   * Prefix growth -- the calls issued *before* seedPrefix() come from
///     the searcher's prefix-localization loop ("do the first k
///     declarations type-check?", k growing by one per call). They are
///     served by extending a persistent environment one committed
///     declaration at a time instead of re-inferring the prefix from
///     scratch each round, and the grown environment is then adopted as
///     the seed checkpoint, making seeding free.
///   * Conventional-verdict memo (OracleAccelOptions::VerdictCache) -- the
///     initial whole-program check reuses the conventionalError() verdict
///     (confirmed by structural equality, which is one pointer compare
///     per declaration when the searcher passes the same program)
///     instead of running inference twice on the same program.
///
/// The oracle keeps references to the declarations it was asked about,
/// not clones: a program's declarations are shared and immutable (the
/// searcher edits only its own clone of the failing one, and no oracle
/// state refers to that), so a reference is as good as a snapshot.
///
/// Every layer toggles independently via OracleAccelOptions so the
/// ablation benches can attribute savings.
///
/// Server mode (setSessionRetention) keeps the oracle alive across
/// requests: instead of discarding the seed checkpoint and the
/// conventional-error memo at clearPrefix(), they are stashed with the
/// prefix declarations they were built from and the input's own failing
/// declaration, and re-adopted when a later request seeds an equal
/// prefix. "Equal" is Decl::equals, the AST's own structural equality
/// (spans ignored); a per-walk memo makes each localization probe compare
/// only its new declaration. An edit-resubmit from an editor then costs
/// little inference: the localization walk is answered from the retained
/// known-good prefix (SessionPrefixHits), seeding re-installs the
/// retained environment (SessionSeedAdoptions), and the conventional
/// message replays from a source-prefix memo (SessionConvMemoHits).
/// Verdicts and ranked suggestions stay bit-identical to a cold run; only
/// the work changes. retainedBytes() is what that state holds, the level
/// a daemon session's eviction watermark is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_CHECKPOINTEDORACLE_H
#define SEMINAL_CORE_CHECKPOINTEDORACLE_H

#include "core/Oracle.h"
#include "support/Stats.h"

#include <memory>
#include <vector>

namespace seminal {

/// Drop-in replacement for CamlOracle with the acceleration layer.
class CheckpointedOracle : public Oracle {
public:
  /// Ignores its second parameter, which perfbench passes (ROADMAP item 5).
  explicit CheckpointedOracle(const OracleAccelOptions &Accel = {},
                              std::shared_ptr<caml::AstArena> = nullptr);
  ~CheckpointedOracle() override;

  /// Always null; perfbench still calls it (ROADMAP item 5).
  std::shared_ptr<caml::AstArena> arena() const { return nullptr; }

  // Oracle interface --------------------------------------------------------
  std::optional<caml::TypeError>
  conventionalError(const caml::Program &Prog) override;
  void seedPrefix(const caml::Program &Prog, unsigned EditedDecl) override;
  void clearPrefix() override;
  size_t inferenceRuns() const override { return Counters.inferenceRuns(); }

  /// Layer-by-layer instrumentation (hits, misses, saved work). The
  /// ArenaBytes level is not maintained here; runSeminalWithOracle reads
  /// retainedBytes() once per run.
  const AccelCounters &counters() const { return Counters; }
  void resetCounters() { Counters.reset(); }

  // Session retention (server mode) -----------------------------------------
  /// Keep warm state across seedPrefix/clearPrefix cycles: the seed
  /// checkpoint and the conventional-error memo survive into the next
  /// request and are re-adopted when its prefix declarations equal the
  /// retained ones. Requires the checkpoint layer and the verdict memo
  /// (whose copy of the input names the failing declaration); toggle
  /// between requests, never mid-request. Turning it off drops all
  /// retained state.
  void setSessionRetention(bool Enabled);
  bool sessionRetention() const { return SessionRetention; }

  /// Announces the source text the next conventionalError() call's
  /// program was parsed from. With session retention on, a request whose
  /// source is byte-identical up to the start of the declaration after
  /// the previous failure (and whose error-region parse is span- and
  /// structure-identical) replays the memoized diagnostic without
  /// inference. The caller must pass the exact text \p Prog came from.
  void primeConventional(std::string Source);

  /// Drops every piece of retained session state.
  void resetSession();

  /// Bytes held for the next request: the type-arena chunks of every
  /// inference checkpoint kept (the retained seed, a grown environment)
  /// plus the conventional memo's source text.
  uint64_t retainedBytes() const;

protected:
  bool typecheckImpl(const caml::Program &Prog) override;
  std::optional<std::string> typeOfNodeImpl(const caml::Program &Prog,
                                            const caml::Expr *Node) override;

private:
  /// True when \p Prog is "seed prefix + one edited let declaration".
  bool matchesSeed(const caml::Program &Prog) const;

  /// Runs inference for "prefix + \p D", via the checkpoint when
  /// available, else over \p Fallback (the full program). Bumps the
  /// inference counters.
  bool inferEditedDecl(const caml::Decl &D, const caml::Program &Fallback);

  /// Recognizes the prefix-localization pattern (the grown prefix plus
  /// exactly one new declaration, or a fresh single-declaration start) and
  /// serves the verdict by extending the growth environment. \returns true
  /// with \p Verdict filled when the call was handled.
  bool tryGrowthPath(const caml::Program &Prog, bool &Verdict);
  bool growthExtend(const caml::DeclPtr &D, bool &Verdict);
  void resetGrowth();

  /// Serves a localization probe from the previous request's retained
  /// prefix knowledge: probes wholly inside the retained known-good
  /// prefix are answered true without inference, the retained failing
  /// declaration is answered false, and a novel last declaration turns
  /// the retained checkpoint into a growth environment so the rest of
  /// the walk runs incrementally. \returns true when handled.
  bool trySessionProbe(const caml::Program &Prog, bool &Verdict);
  /// Whether declaration \p I of the program being walked equals the
  /// retained one at that index: a prefix declaration, or at the prefix's
  /// end the failing one. Memoized per walk by declaration pointer.
  bool matchesRetained(size_t I, const caml::Decl *D);
  /// Moves the live seed state (checkpoint, prefix declarations, the
  /// input's failing declaration) into Retained; called from clearPrefix
  /// in session mode.
  void stashSessionState();
  /// True when the retained conventional-error memo provably applies to
  /// the program the current source text parsed to.
  bool convMemoApplies(const caml::Program &Prog) const;

  OracleAccelOptions Accel;
  AccelCounters Counters;

  // Pre-seed state ----------------------------------------------------------
  /// Environment grown one committed declaration at a time while the
  /// searcher localizes the failing declaration; matched structurally
  /// against the committed declarations (held by reference, so they can
  /// never be freed under the match) and adopted by seedPrefix when it
  /// covers exactly the seed prefix.
  std::unique_ptr<caml::InferenceCheckpoint> Growth;
  std::vector<caml::DeclPtr> GrowthDecls;
  /// Memo of the last conventionalError() verdict; serves the searcher's
  /// initial whole-program check without a second inference run. Dropped
  /// at seedPrefix, after which no call can match it.
  caml::Program ConvProg;
  bool HasConvMemo = false;
  bool ConvOk = false;

  // Seed state (valid between seedPrefix and clearPrefix) -------------------
  bool Seeded = false;
  unsigned EditedIndex = 0;
  /// The seeded program's prefix declarations. matchesSeed compares
  /// pointers against them; in session mode they are stashed with the
  /// checkpoint, which a later request may turn back into a growth
  /// environment that matches localization probes structurally.
  std::vector<caml::DeclPtr> PrefixDecls;
  std::unique_ptr<caml::InferenceCheckpoint> Checkpoint;

  // Session retention state (server mode) ------------------------------
  bool SessionRetention = false;
  /// Seed state stashed at clearPrefix. Everything here is conditioned
  /// on exactly this prefix: the checkpoint snapshots its environment and
  /// Failing is the declaration known to fail on top of it. Both keys are
  /// the input's own declarations, shared with the request's program and
  /// never edited; Failing is null when the seed had no input copy to
  /// take it from.
  struct RetainedSeed {
    bool Valid = false;
    std::vector<caml::DeclPtr> PrefixDecls;
    caml::DeclPtr Failing;
    std::unique_ptr<caml::InferenceCheckpoint> Checkpoint;
  };
  RetainedSeed Retained;

  /// Cross-request conventional-error memo. Valid when the next source
  /// is byte-identical on [0, PrefixEnd) -- PrefixEnd is the start of
  /// the declaration after the failure (or the whole file when the
  /// failure was in the last declaration) -- and the re-parse of decls
  /// 0..ErrIdx is span- and structure-identical to Decls. The checker
  /// aborts at the first error, so nothing past PrefixEnd can change the
  /// diagnostic (Infer.h's ErrorDeclIndex contract).
  struct RetainedConv {
    bool Valid = false;
    std::string Source;
    size_t PrefixEnd = 0;
    unsigned ErrIdx = 0;
    std::vector<caml::DeclPtr> Decls;
    std::optional<caml::TypeError> Error;
  };
  RetainedConv SessionConv;
  std::string CurrentSource; ///< From primeConventional, one request.
  bool HaveCurrentSource = false;

  /// The live seed's failing declaration as the input has it (the
  /// memo's copy, not the searcher's clone, which the search edits in
  /// place), taken at seedPrefix in session mode for the later stash.
  caml::DeclPtr SeedFailing;

  /// Per-localization-walk match memo: the searcher's Work program
  /// appends one declaration per probe and never mutates earlier ones,
  /// so (pointer, matched) pairs make each probe compare exactly one new
  /// declaration against the retained ones. Cleared at every request
  /// boundary (primeConventional/conventionalError/clearPrefix) so
  /// pointers never dangle across programs.
  std::vector<std::pair<const caml::Decl *, bool>> WalkMatches;
};

} // namespace seminal

#endif // SEMINAL_CORE_CHECKPOINTEDORACLE_H
