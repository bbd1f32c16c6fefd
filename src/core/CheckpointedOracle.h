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
/// conventional-error memo at clearPrefix(), they are stashed keyed on
/// the prefix's interned declaration ids (interned once per request) and
/// re-adopted when a later request seeds an id-identical prefix. An
/// edit-resubmit from an editor then costs little inference: the
/// localization walk is answered from the retained known-good prefix
/// (SessionPrefixHits), seeding re-installs the retained environment
/// (SessionSeedAdoptions), and the conventional message replays from a
/// source-prefix memo (SessionConvMemoHits). Verdicts and ranked
/// suggestions stay bit-identical to a cold run; only the work changes.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_CORE_CHECKPOINTEDORACLE_H
#define SEMINAL_CORE_CHECKPOINTEDORACLE_H

#include "core/Oracle.h"
#include "minicaml/Arena.h"
#include "support/Stats.h"

#include <memory>
#include <vector>

namespace seminal {

/// Drop-in replacement for CamlOracle with the acceleration layer.
class CheckpointedOracle : public Oracle {
public:
  /// \p Arena may be shared with the caller (the server keeps a session's
  /// arena across oracle rebuilds); when null and Accel.Arena is set the
  /// oracle creates a private arena. Interned nodes are immortal, so the
  /// ids keying retained session state stay valid across requests.
  explicit CheckpointedOracle(const OracleAccelOptions &Accel = {},
                              std::shared_ptr<caml::AstArena> Arena = nullptr);
  ~CheckpointedOracle() override;

  /// The hash-consing arena (null when the layer is disabled).
  const std::shared_ptr<caml::AstArena> &arena() const { return TheArena; }

  // Oracle interface --------------------------------------------------------
  std::optional<caml::TypeError>
  conventionalError(const caml::Program &Prog) override;
  void seedPrefix(const caml::Program &Prog, unsigned EditedDecl) override;
  void clearPrefix() override;
  size_t inferenceRuns() const override { return Counters.inferenceRuns(); }

  /// Layer-by-layer instrumentation (hits, misses, saved work). The
  /// Arena* gauges are not maintained here; runSeminalWithOracle reads
  /// them from the arena once per run.
  const AccelCounters &counters() const { return Counters; }
  void resetCounters() { Counters.reset(); }

  // Session retention (server mode) -----------------------------------------
  /// Keep warm state across seedPrefix/clearPrefix cycles: the seed
  /// checkpoint and the conventional-error memo survive into the next
  /// request and are re-adopted when its prefix interns to the same
  /// declaration ids. Requires the arena and checkpoint layers; toggle
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
  /// Moves the live seed state (checkpoint, prefix declarations) into
  /// Retained, keyed on the seed's interned prefix ids; called from
  /// clearPrefix in session mode.
  void stashSessionState();
  /// True when the retained conventional-error memo provably applies to
  /// the program the current source text parsed to.
  bool convMemoApplies(const caml::Program &Prog) const;

  OracleAccelOptions Accel;
  AccelCounters Counters;
  std::shared_ptr<caml::AstArena> TheArena;

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
  /// Seed state stashed at clearPrefix, keyed on the prefix's interned
  /// ids. Everything here is conditioned on exactly that prefix: the
  /// checkpoint snapshots its environment and FailingId is the
  /// declaration known to fail on top of it.
  struct RetainedSeed {
    bool Valid = false;
    std::vector<caml::AstArena::DeclId> PrefixIds;
    caml::AstArena::DeclId FailingId = caml::AstArena::InvalidId;
    std::unique_ptr<caml::InferenceCheckpoint> Checkpoint;
    std::vector<caml::DeclPtr> PrefixDecls;
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

  /// The live seed's interned identity (prefix ids + failing decl id),
  /// computed once at seedPrefix in session mode for the later stash.
  std::vector<caml::AstArena::DeclId> SeedPrefixIds;
  caml::AstArena::DeclId SeedFailingId = caml::AstArena::InvalidId;

  /// Per-localization-walk intern memo: the searcher's Work program
  /// appends one declaration per probe and never mutates earlier ones,
  /// so (pointer, id) pairs make each probe intern exactly one new tree
  /// instead of the whole prefix. Cleared at every request boundary
  /// (primeConventional/conventionalError/clearPrefix) so pointers never
  /// dangle across programs.
  std::vector<std::pair<const caml::Decl *, caml::AstArena::DeclId>> WalkIds;
};

} // namespace seminal

#endif // SEMINAL_CORE_CHECKPOINTEDORACLE_H
