//===- CheckpointedOracle.cpp - Accelerated type-check oracle --------------==//

#include "core/CheckpointedOracle.h"

using namespace seminal;
using namespace seminal::caml;

CheckpointedOracle::CheckpointedOracle(const OracleAccelOptions &Accel,
                                       std::shared_ptr<AstArena>)
    : Accel(Accel) {}

CheckpointedOracle::~CheckpointedOracle() = default;

void CheckpointedOracle::setSessionRetention(bool Enabled) {
  // Retention needs the checkpoint layer (the stash *is* a checkpoint)
  // and the memo (its copy of the input supplies the failing
  // declaration's key). Without them the toggle is inert rather than an
  // error so a server built with ablated acceleration still runs, just
  // cold.
  SessionRetention = Enabled && Accel.Checkpoint && Accel.VerdictCache;
  if (!SessionRetention)
    resetSession();
}

void CheckpointedOracle::primeConventional(std::string Source) {
  CurrentSource = std::move(Source);
  HaveCurrentSource = true;
  WalkMatches.clear();
}

void CheckpointedOracle::resetSession() {
  Retained = RetainedSeed();
  SessionConv = RetainedConv();
  CurrentSource.clear();
  HaveCurrentSource = false;
  SeedFailing.reset();
  WalkMatches.clear();
  resetGrowth();
  ConvProg = Program();
  HasConvMemo = false;
  ConvOk = false;
}

uint64_t CheckpointedOracle::retainedBytes() const {
  uint64_t Bytes = SessionConv.Source.size();
  for (const InferenceCheckpoint *CP :
       {Retained.Checkpoint.get(), Growth.get(), Checkpoint.get()})
    if (CP)
      Bytes += CP->arenaBytes();
  return Bytes;
}

bool CheckpointedOracle::convMemoApplies(const Program &Prog) const {
  const RetainedConv &M = SessionConv;
  // PrefixEnd == 0 means the memoized program carried no usable spans;
  // never match on it (an empty byte prefix would match everything).
  if (M.PrefixEnd == 0 || CurrentSource.size() < M.PrefixEnd ||
      Prog.Decls.size() <= M.ErrIdx)
    return false;
  if (CurrentSource.compare(0, M.PrefixEnd, M.Source, 0, M.PrefixEnd) != 0)
    return false;
  // Identical bytes up to the start of the declaration after the failure
  // mean the error region re-lexed identically; the parse of its last
  // declaration could still differ through lookahead into the changed
  // suffix, so confirm span + structure. Equal spans over equal bytes
  // pin the inner spans too, making the replayed diagnostic
  // bit-identical to a fresh inference run.
  for (unsigned I = 0; I <= M.ErrIdx; ++I) {
    const Decl &A = *Prog.Decls[I];
    const Decl &B = *M.Decls[I];
    if (A.Span.Begin.Offset != B.Span.Begin.Offset ||
        A.Span.EndOffset != B.Span.EndOffset || !A.equals(B))
      return false;
  }
  return true;
}

std::optional<TypeError>
CheckpointedOracle::conventionalError(const Program &Prog) {
  WalkMatches.clear(); // Request boundary: Work pointers from the
                       // previous run's localization walk are gone.
  // Session fast path: an edit past the failing declaration cannot change
  // the diagnostic (the checker aborts at the first error), so replay it.
  if (SessionRetention && SessionConv.Valid && HaveCurrentSource &&
      convMemoApplies(Prog)) {
    ++Counters.SessionConvMemoHits;
    // The error region is structurally identical: hold this request's
    // declarations, the ones the rest of the session state references.
    SessionConv.Decls.assign(Prog.Decls.begin(),
                             Prog.Decls.begin() + SessionConv.ErrIdx + 1);
    if (Accel.VerdictCache) {
      // The searcher's opening whole-program probe still gets its memo.
      ConvProg = Prog;
      ConvOk = false;
      HasConvMemo = true;
    }
    HaveCurrentSource = false;
    return SessionConv.Error;
  }

  // Rendered once per run to show the baseline message; not search work,
  // so it stays out of the counters.
  TypecheckResult R = typecheckProgram(Prog);
  if (Accel.VerdictCache) {
    // The searcher's first oracle call asks the boolean version of this
    // exact question; remember the verdict so it need not re-infer.
    ConvProg = Prog;
    ConvOk = R.ok();
    HasConvMemo = true;
  }
  // (Re)build the cross-request memo for the next edit-resubmit. Only a
  // parsed program qualifies: the byte-prefix validity check needs real
  // spans, and a synthesized next-declaration offset of 0 is rejected.
  SessionConv = RetainedConv();
  if (SessionRetention && HaveCurrentSource && R.Error && R.ErrorDeclIndex &&
      *R.ErrorDeclIndex < Prog.Decls.size()) {
    unsigned ErrIdx = *R.ErrorDeclIndex;
    size_t PrefixEnd = ErrIdx + 1 < Prog.Decls.size()
                           ? size_t(Prog.Decls[ErrIdx + 1]->Span.Begin.Offset)
                           : CurrentSource.size();
    if (PrefixEnd > 0 && PrefixEnd <= CurrentSource.size()) {
      SessionConv.Valid = true;
      SessionConv.Source = CurrentSource;
      SessionConv.PrefixEnd = PrefixEnd;
      SessionConv.ErrIdx = ErrIdx;
      SessionConv.Decls.assign(Prog.Decls.begin(),
                               Prog.Decls.begin() + ErrIdx + 1);
      SessionConv.Error = R.Error;
    }
  }
  HaveCurrentSource = false;
  return R.Error;
}

void CheckpointedOracle::seedPrefix(const Program &Prog, unsigned EditedDecl) {
  // A re-seed ends the live seed. Seeding right after a localization walk
  // keeps the walk's match memo, which covers this prefix.
  if (Seeded)
    clearPrefix();
  if (EditedDecl >= Prog.Decls.size())
    return;
  Seeded = true;
  EditedIndex = EditedDecl;
  PrefixDecls.assign(Prog.Decls.begin(), Prog.Decls.begin() + EditedDecl);

  // Session mode: the stash will key on this prefix and on the input's
  // own failing declaration -- the memo's copy, since Prog's is the
  // searcher's clone, which the search edits in place. Last request's
  // checkpoint still applies when its prefix equals this one; the
  // localization walk has normally compared every declaration already.
  bool SessionMatch = false;
  if (SessionRetention) {
    if (ConvProg.Decls.size() > EditedDecl &&
        ConvProg.Decls[EditedDecl]->equals(*Prog.Decls[EditedDecl]))
      SeedFailing = ConvProg.Decls[EditedDecl];
    SessionMatch =
        Retained.Valid && Retained.PrefixDecls.size() == EditedDecl;
    for (unsigned I = 0; SessionMatch && I < EditedDecl; ++I)
      SessionMatch = matchesRetained(I, Prog.Decls[I].get());
  }
  // The memo's whole program can match no call from here on: every
  // search call is seed-shaped, and typeOfNode never consults it.
  ConvProg = Program();
  HasConvMemo = false;

  // If localization just grew an environment that covers exactly this
  // prefix, adopt it -- seeding costs nothing. Structural equality is the
  // validity condition; on any mismatch fall through to a fresh snapshot.
  if (Accel.Checkpoint && Growth && Growth->prefixLength() == EditedDecl &&
      GrowthDecls.size() == EditedDecl) {
    bool Match = true;
    for (unsigned I = 0; I < EditedDecl; ++I)
      if (!Prog.Decls[I]->equals(*GrowthDecls[I])) {
        Match = false;
        break;
      }
    if (Match) {
      Checkpoint = std::move(Growth);
      resetGrowth();
      ++Counters.CheckpointSeeds;
      // The walk grew this exact retained prefix -- normally from the
      // retained environment itself, which trySessionProbe handed over --
      // so the stash is spent.
      if (SessionMatch) {
        Retained = RetainedSeed();
        ++Counters.SessionSeedAdoptions;
      }
      return;
    }
  }

  // Session adoption: the previous request seeded this exact prefix, so
  // its environment transfers wholesale. This is the edit-resubmit hot
  // path.
  if (SessionMatch && Retained.Checkpoint &&
      Retained.Checkpoint->prefixLength() == EditedDecl) {
    Checkpoint = std::move(Retained.Checkpoint);
    Retained = RetainedSeed();
    ++Counters.CheckpointSeeds;
    ++Counters.SessionSeedAdoptions;
    return;
  }

  if (Accel.Checkpoint) {
    Checkpoint = InferenceCheckpoint::create(Prog, EditedDecl);
    if (Checkpoint)
      ++Counters.CheckpointSeeds;
  }
}

void CheckpointedOracle::stashSessionState() {
  Retained = RetainedSeed();
  // Only a seed with a live environment snapshot is worth keeping.
  if (!Checkpoint)
    return;
  Retained.Valid = true;
  Retained.PrefixDecls = std::move(PrefixDecls);
  Retained.Failing = std::move(SeedFailing);
  Retained.Checkpoint = std::move(Checkpoint);
}

void CheckpointedOracle::clearPrefix() {
  if (SessionRetention && Seeded)
    stashSessionState();
  Seeded = false;
  EditedIndex = 0;
  PrefixDecls.clear();
  Checkpoint.reset();
  SeedFailing.reset();
  WalkMatches.clear();
}

void CheckpointedOracle::resetGrowth() {
  Growth.reset();
  GrowthDecls.clear();
}

bool CheckpointedOracle::growthExtend(const DeclPtr &D, bool &Verdict) {
  // Committing the declaration performs exactly the inference a full run
  // would perform on it -- but skips re-inferring everything before it.
  ++Counters.IncrementalInferences;
  Counters.DeclInferencesSaved += Growth->prefixLength();
  LastServedBy = "growth-extend";
  LastReuseDepth = int64_t(Growth->prefixLength());
  size_t Allocated = 0;
  Verdict = Growth->extendWith(*D, &Allocated);
  Counters.TypesAllocated += Allocated;
  if (Verdict)
    GrowthDecls.push_back(D);
  else if (D->kind() != Decl::Kind::Let)
    // A failed type/exception declaration may leave partial constructor
    // table entries behind; the environment can no longer be trusted.
    resetGrowth();
  return true;
}

bool CheckpointedOracle::matchesRetained(size_t I, const Decl *D) {
  if (I < WalkMatches.size() && WalkMatches[I].first == D)
    return WalkMatches[I].second;
  // The walk appends one declaration per localization round and never
  // mutates the earlier ones, so every round compares exactly one new
  // declaration; entries past a changed pointer are stale.
  WalkMatches.resize(I);
  const DeclPtr &Key =
      I < Retained.PrefixDecls.size() ? Retained.PrefixDecls[I]
                                      : Retained.Failing;
  bool Matched = Key && D->equals(*Key);
  WalkMatches.emplace_back(D, Matched);
  return Matched;
}

bool CheckpointedOracle::trySessionProbe(const Program &Prog, bool &Verdict) {
  if (!SessionRetention || !Retained.Valid || Seeded)
    return false;
  const size_t N = Prog.Decls.size();
  const size_t P = Retained.PrefixDecls.size();
  if (N == 0 || N > P + 1)
    return false;
  // Everything but (possibly) the last declaration must match the
  // retained known-good prefix; an interior divergence means this is not
  // a walk over the program the session knows.
  size_t Match = 0;
  while (Match < N && Match < P &&
         matchesRetained(Match, Prog.Decls[Match].get()))
    ++Match;
  if (Match + 1 < N)
    return false;
  if (Match == N) {
    // Wholly inside the prefix the previous request proved good.
    ++Counters.SessionPrefixHits;
    LastServedBy = "session-prefix";
    LastCacheHit = true;
    Verdict = true;
    return true;
  }
  if (N == P + 1 && matchesRetained(P, Prog.Decls[P].get())) {
    // The previous request proved exactly this declaration fails on top
    // of exactly this prefix.
    ++Counters.SessionPrefixHits;
    LastServedBy = "session-prefix";
    LastCacheHit = true;
    Verdict = false;
    return true;
  }
  // A novel last declaration over a known-good prefix: the user edited
  // the failing declaration (N == P + 1) or a prefix declaration
  // (N <= P). Build a growth environment so this probe and the rest of
  // the walk run incrementally instead of falling to full inference.
  if (Growth)
    return false; // A walk is already growing; let it serve.
  if (N == P + 1 && Retained.Checkpoint &&
      Retained.Checkpoint->prefixLength() == P) {
    // The retained environment covers the whole prefix -- it becomes the
    // growth environment directly (if the edited declaration still fails,
    // seedPrefix adopts it back as this request's seed). The declarations
    // are copied, not moved: they stay the key for the rest of the walk.
    Growth = std::move(Retained.Checkpoint);
    GrowthDecls = Retained.PrefixDecls;
    return growthExtend(Prog.Decls[N - 1], Verdict);
  }
  // Prefix edit: the declarations before the divergence are known good,
  // so snapshot them in one pass and grow from there. (Cold behavior
  // here would re-infer the full prefix on every remaining probe.)
  auto Rebuilt = InferenceCheckpoint::create(Prog, unsigned(N - 1));
  if (!Rebuilt)
    return false;
  Growth = std::move(Rebuilt);
  GrowthDecls.assign(Prog.Decls.begin(), Prog.Decls.begin() + (N - 1));
  return growthExtend(Prog.Decls[N - 1], Verdict);
}

bool CheckpointedOracle::tryGrowthPath(const Program &Prog, bool &Verdict) {
  if (!Accel.Checkpoint || Seeded)
    return false;
  const size_t N = Prog.Decls.size();
  // The grown prefix plus exactly one new declaration? (The localization
  // loop asks precisely this, one declaration longer per call.)
  if (Growth && N == GrowthDecls.size() + 1) {
    bool Match = true;
    for (size_t I = 0; I + 1 < N; ++I)
      if (!Prog.Decls[I]->equals(*GrowthDecls[I])) {
        Match = false;
        break;
      }
    if (Match)
      return growthExtend(Prog.Decls[N - 1], Verdict);
  }
  if (N == 1) {
    // A fresh localization walk starts here: snapshot the bare standard
    // library (prefix length zero never fails) and grow from it.
    resetGrowth();
    Growth = InferenceCheckpoint::create(Prog, 0);
    if (!Growth)
      return false;
    return growthExtend(Prog.Decls[0], Verdict);
  }
  return false;
}

bool CheckpointedOracle::matchesSeed(const Program &Prog) const {
  if (!Seeded || Prog.Decls.size() != size_t(EditedIndex) + 1)
    return false;
  // The searcher shares the prefix declarations and edits only its own
  // clone of the last one, so pointer comparison makes the match
  // O(prefix) with no tree walk. A caller holding different (even
  // structurally equal) prefix objects simply falls back to full
  // inference -- never wrong, only slow.
  for (unsigned I = 0; I < EditedIndex; ++I)
    if (Prog.Decls[I] != PrefixDecls[I])
      return false;
  // Only Let declarations may be replayed against a checkpoint (type and
  // exception declarations mutate untrailed global tables).
  return Prog.Decls[EditedIndex]->kind() == Decl::Kind::Let;
}

bool CheckpointedOracle::inferEditedDecl(const Decl &D,
                                         const Program &Fallback) {
  if (Checkpoint) {
    ++Counters.IncrementalInferences;
    Counters.DeclInferencesSaved += Checkpoint->prefixLength();
    LastServedBy = "checkpoint-incremental";
    LastReuseDepth = int64_t(Checkpoint->prefixLength());
    TypecheckResult R = Checkpoint->queryDecl(D);
    Counters.TypesAllocated += R.TypesAllocated;
    return R.ok();
  }
  if (Accel.Checkpoint)
    ++Counters.CheckpointFallbacks; // Prefix failed to snapshot.
  ++Counters.FullInferences;
  TypecheckResult R = typecheckProgram(Fallback);
  Counters.TypesAllocated += R.TypesAllocated;
  return R.ok();
}

bool CheckpointedOracle::typecheckImpl(const Program &Prog) {
  if (matchesSeed(Prog))
    return inferEditedDecl(*Prog.Decls[EditedIndex], Prog);
  // Asked about the same program conventionalError() just inferred? (The
  // searcher's opening "does the input type-check at all" probe, and the
  // final localization round when the last declaration fails.)
  if (HasConvMemo && Prog.Decls.size() == ConvProg.Decls.size() &&
      Prog.equals(ConvProg)) {
    ++Counters.CacheHits;
    LastServedBy = "conv-memo";
    LastCacheHit = true;
    return ConvOk;
  }
  bool Verdict;
  if (trySessionProbe(Prog, Verdict))
    return Verdict;
  if (tryGrowthPath(Prog, Verdict))
    return Verdict;
  if (Seeded)
    ++Counters.CheckpointFallbacks;
  ++Counters.FullInferences;
  TypecheckResult R = typecheckProgram(Prog);
  Counters.TypesAllocated += R.TypesAllocated;
  return R.ok();
}

std::optional<std::string>
CheckpointedOracle::typeOfNodeImpl(const Program &Prog, const Expr *Node) {
  // Type queries ride the checkpoint like any seeded call.
  if (Checkpoint && matchesSeed(Prog)) {
    ++Counters.IncrementalInferences;
    Counters.DeclInferencesSaved += Checkpoint->prefixLength();
    LastServedBy = "checkpoint-incremental";
    LastReuseDepth = int64_t(Checkpoint->prefixLength());
    TypecheckResult R = Checkpoint->queryDecl(*Prog.Decls[EditedIndex], Node);
    Counters.TypesAllocated += R.TypesAllocated;
    if (!R.ok())
      return std::nullopt;
    return R.QueriedType;
  }
  if (Seeded)
    ++Counters.CheckpointFallbacks;
  ++Counters.FullInferences;
  TypecheckOptions Opts;
  Opts.QueryNode = Node;
  TypecheckResult R = typecheckProgram(Prog, Opts);
  Counters.TypesAllocated += R.TypesAllocated;
  if (!R.ok())
    return std::nullopt;
  return R.QueriedType;
}
