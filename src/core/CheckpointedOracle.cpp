//===- CheckpointedOracle.cpp - Accelerated type-check oracle --------------==//

#include "core/CheckpointedOracle.h"

using namespace seminal;
using namespace seminal::caml;

CheckpointedOracle::CheckpointedOracle(const OracleAccelOptions &Accel,
                                       std::shared_ptr<AstArena> Arena)
    : Accel(Accel), TheArena(std::move(Arena)) {
  if (this->Accel.Arena && !TheArena)
    TheArena = std::make_shared<AstArena>();
  if (!this->Accel.Arena)
    TheArena.reset(); // The toggle wins over an injected arena.
}

CheckpointedOracle::~CheckpointedOracle() = default;

void CheckpointedOracle::setSessionRetention(bool Enabled) {
  // Retention needs the arena (ids key the stash) and the checkpoint
  // layer (the stash *is* a checkpoint). Without them the toggle is inert
  // rather than an error so a server built with ablated acceleration
  // still runs, just cold.
  SessionRetention = Enabled && TheArena && Accel.Checkpoint;
  if (!SessionRetention)
    resetSession();
}

void CheckpointedOracle::primeConventional(std::string Source) {
  CurrentSource = std::move(Source);
  HaveCurrentSource = true;
  WalkIds.clear();
}

void CheckpointedOracle::resetSession() {
  Retained = RetainedSeed();
  SessionConv = RetainedConv();
  CurrentSource.clear();
  HaveCurrentSource = false;
  SeedPrefixIds.clear();
  SeedFailingId = AstArena::InvalidId;
  WalkIds.clear();
  resetGrowth();
  ConvClone = Program();
  HasConvMemo = false;
  ConvOk = false;
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
    const Decl &B = *M.Clones[I];
    if (A.Span.Begin.Offset != B.Span.Begin.Offset ||
        A.Span.EndOffset != B.Span.EndOffset || !A.equals(B))
      return false;
  }
  return true;
}

std::optional<TypeError>
CheckpointedOracle::conventionalError(const Program &Prog) {
  WalkIds.clear(); // Request boundary: Work pointers from the previous
                   // run's localization walk are gone.
  // Session fast path: an edit past the failing declaration cannot change
  // the diagnostic (the checker aborts at the first error), so replay it.
  if (SessionRetention && SessionConv.Valid && HaveCurrentSource &&
      convMemoApplies(Prog)) {
    ++Counters.SessionConvMemoHits;
    if (Accel.VerdictCache) {
      // The searcher's opening whole-program probe still gets its memo.
      ConvClone = Prog.clone();
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
    ConvClone = Prog.clone();
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
      SessionConv.Clones.reserve(ErrIdx + 1);
      for (unsigned I = 0; I <= ErrIdx; ++I)
        SessionConv.Clones.push_back(Prog.Decls[I]->clone());
      SessionConv.Error = R.Error;
    }
  }
  HaveCurrentSource = false;
  return R.Error;
}

void CheckpointedOracle::seedPrefix(const Program &Prog, unsigned EditedDecl) {
  clearPrefix();
  if (EditedDecl >= Prog.Decls.size())
    return;
  Seeded = true;
  EditedIndex = EditedDecl;
  PrefixIdentity.reserve(EditedDecl);
  for (unsigned I = 0; I < EditedDecl; ++I)
    PrefixIdentity.push_back(Prog.Decls[I].get());

  // Session mode: intern the seed's identity once. The ids key this
  // request's eventual stash, and matching them against the retained ids
  // decides whether last request's checkpoint still applies (id equality
  // is tree equality, so the comparison is EditedDecl integer compares).
  bool SessionMatch = false;
  if (SessionRetention) {
    SeedPrefixIds.reserve(EditedDecl);
    for (unsigned I = 0; I < EditedDecl; ++I)
      SeedPrefixIds.push_back(TheArena->internDecl(*Prog.Decls[I]));
    SeedFailingId = TheArena->internDecl(*Prog.Decls[EditedDecl]);
    SessionMatch = Retained.Valid && Retained.PrefixIds == SeedPrefixIds;
  }

  // If localization just grew an environment that covers exactly this
  // prefix, adopt it -- seeding costs nothing. Structural equality is the
  // validity condition; on any mismatch fall through to a fresh snapshot.
  if (Accel.Checkpoint && Growth && Growth->prefixLength() == EditedDecl &&
      GrowthClones.size() == EditedDecl) {
    bool Match = true;
    for (unsigned I = 0; I < EditedDecl; ++I)
      if (!Prog.Decls[I]->equals(*GrowthClones[I])) {
        Match = false;
        break;
      }
    if (Match) {
      Checkpoint = std::move(Growth);
      PrefixClone.Decls = std::move(GrowthClones);
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
    PrefixClone = std::move(Retained.PrefixClone);
    Retained = RetainedSeed();
    ++Counters.CheckpointSeeds;
    ++Counters.SessionSeedAdoptions;
    return;
  }

  if (SessionRetention) {
    PrefixClone.Decls.reserve(EditedDecl);
    for (unsigned I = 0; I < EditedDecl; ++I)
      PrefixClone.Decls.push_back(Prog.Decls[I]->clone());
  }
  if (Accel.Checkpoint) {
    Checkpoint = InferenceCheckpoint::create(Prog, EditedDecl);
    if (Checkpoint)
      ++Counters.CheckpointSeeds;
  }
}

void CheckpointedOracle::stashSessionState() {
  Retained = RetainedSeed();
  // Only a seed with a live environment snapshot is worth keeping, and
  // only one whose identity was interned at seedPrefix (retention was on
  // when this request seeded).
  if (!Checkpoint || SeedPrefixIds.size() != EditedIndex)
    return;
  Retained.Valid = true;
  Retained.PrefixIds = std::move(SeedPrefixIds);
  Retained.FailingId = SeedFailingId;
  Retained.Checkpoint = std::move(Checkpoint);
  Retained.PrefixClone = std::move(PrefixClone);
}

void CheckpointedOracle::clearPrefix() {
  if (SessionRetention && Seeded)
    stashSessionState();
  Seeded = false;
  EditedIndex = 0;
  PrefixIdentity.clear();
  PrefixClone = Program();
  Checkpoint.reset();
  SeedPrefixIds.clear();
  SeedFailingId = AstArena::InvalidId;
  WalkIds.clear();
}

void CheckpointedOracle::resetGrowth() {
  Growth.reset();
  GrowthClones.clear();
}

bool CheckpointedOracle::growthExtend(const Decl &D, bool &Verdict) {
  // Committing the declaration performs exactly the inference a full run
  // would perform on it -- but skips re-inferring everything before it.
  ++Counters.IncrementalInferences;
  Counters.DeclInferencesSaved += Growth->prefixLength();
  LastServedBy = "growth-extend";
  if (MetricsOut)
    MetricsOut->observe(metric::CheckpointReuseDepth,
                        double(Growth->prefixLength()));
  size_t Allocated = 0;
  Verdict = Growth->extendWith(D, &Allocated);
  Counters.TypesAllocated += Allocated;
  if (Verdict)
    GrowthClones.push_back(D.clone());
  else if (D.kind() != Decl::Kind::Let)
    // A failed type/exception declaration may leave partial constructor
    // table entries behind; the environment can no longer be trusted.
    resetGrowth();
  return true;
}

bool CheckpointedOracle::trySessionProbe(const Program &Prog, bool &Verdict) {
  if (!SessionRetention || !Retained.Valid || Seeded)
    return false;
  const size_t N = Prog.Decls.size();
  const size_t P = Retained.PrefixIds.size();
  if (N == 0 || N > P + 1)
    return false;
  // Intern the probe's declarations through the walk memo: the searcher
  // appends one declaration per localization round and never mutates the
  // earlier ones, so every round interns exactly one new tree.
  for (size_t I = 0; I < N; ++I) {
    const Decl *D = Prog.Decls[I].get();
    if (I < WalkIds.size() && WalkIds[I].first == D)
      continue;
    WalkIds.resize(I);
    WalkIds.emplace_back(D, TheArena->internDecl(*D));
  }
  // Everything but (possibly) the last declaration must match the
  // retained known-good prefix; an interior divergence means this is not
  // a walk over the program the session knows.
  size_t Match = 0;
  while (Match < N && Match < P &&
         WalkIds[Match].second == Retained.PrefixIds[Match])
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
  const AstArena::DeclId LastId = WalkIds[N - 1].second;
  if (N == P + 1 && LastId == Retained.FailingId) {
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
    // seedPrefix adopts it back as this request's seed).
    Growth = std::move(Retained.Checkpoint);
    GrowthClones = std::move(Retained.PrefixClone.Decls);
    Retained.PrefixClone = Program();
    return growthExtend(*Prog.Decls[N - 1], Verdict);
  }
  // Prefix edit: the declarations before the divergence are known good,
  // so snapshot them in one pass and grow from there. (Cold behavior
  // here would re-infer the full prefix on every remaining probe.)
  auto Rebuilt = InferenceCheckpoint::create(Prog, unsigned(N - 1));
  if (!Rebuilt)
    return false;
  Growth = std::move(Rebuilt);
  GrowthClones.clear();
  GrowthClones.reserve(N - 1);
  for (size_t I = 0; I + 1 < N; ++I)
    GrowthClones.push_back(Prog.Decls[I]->clone());
  return growthExtend(*Prog.Decls[N - 1], Verdict);
}

bool CheckpointedOracle::tryGrowthPath(const Program &Prog, bool &Verdict) {
  if (!Accel.Checkpoint || Seeded)
    return false;
  const size_t N = Prog.Decls.size();
  // The grown prefix plus exactly one new declaration? (The localization
  // loop asks precisely this, one declaration longer per call.)
  if (Growth && N == GrowthClones.size() + 1) {
    bool Match = true;
    for (size_t I = 0; I + 1 < N; ++I)
      if (!Prog.Decls[I]->equals(*GrowthClones[I])) {
        Match = false;
        break;
      }
    if (Match)
      return growthExtend(*Prog.Decls[N - 1], Verdict);
  }
  if (N == 1) {
    // A fresh localization walk starts here: snapshot the bare standard
    // library (prefix length zero never fails) and grow from it.
    resetGrowth();
    Growth = InferenceCheckpoint::create(Prog, 0);
    if (!Growth)
      return false;
    return growthExtend(*Prog.Decls[0], Verdict);
  }
  return false;
}

bool CheckpointedOracle::matchesSeed(const Program &Prog) const {
  if (!Seeded || Prog.Decls.size() != size_t(EditedIndex) + 1)
    return false;
  // The searcher edits Work in place, so the unedited prefix keeps its
  // Decl identities; pointer comparison makes the match O(prefix) with no
  // tree walk. A caller holding different (even structurally equal) prefix
  // objects simply falls back to full inference -- never wrong, only slow.
  for (unsigned I = 0; I < EditedIndex; ++I)
    if (Prog.Decls[I].get() != PrefixIdentity[I])
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
    if (MetricsOut)
      MetricsOut->observe(metric::CheckpointReuseDepth,
                          double(Checkpoint->prefixLength()));
    TypecheckResult R = Checkpoint->checkDecl(D);
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
  if (HasConvMemo && Prog.Decls.size() == ConvClone.Decls.size() &&
      Prog.equals(ConvClone)) {
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
    if (MetricsOut)
      MetricsOut->observe(metric::CheckpointReuseDepth,
                          double(Checkpoint->prefixLength()));
    TypecheckOptions Opts;
    Opts.QueryNode = Node;
    TypecheckResult R = Checkpoint->checkDecl(*Prog.Decls[EditedIndex], Opts);
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
