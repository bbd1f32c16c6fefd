//===- CheckpointedOracle.cpp - Accelerated type-check oracle --------------==//

#include "core/CheckpointedOracle.h"

#include "minicaml/Hash.h"

#include <cassert>
#include <chrono>

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

void CheckpointedOracle::syncArenaStats() {
  const AstArena::Stats &S = TheArena->stats();
  Counters.ArenaNodes = S.Nodes;
  Counters.ArenaHits = S.Hits;
  Counters.ArenaBytes = S.Bytes;
  LastArenaNodes = S.Nodes;
  LastArenaHits = S.Hits;
  LastArenaBytes = S.Bytes;
}

CheckpointedOracle::~CheckpointedOracle() = default;

void CheckpointedOracle::setSessionRetention(bool Enabled) {
  // Retention needs the arena (ids key the stash), the checkpoint layer
  // (the stash *is* a checkpoint) and the verdict cache (what the stash
  // carries). Without them the toggle is inert rather than an error so a
  // server built with ablated acceleration still runs, just cold.
  SessionRetention =
      Enabled && TheArena && Accel.Checkpoint && Accel.VerdictCache;
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
  // decides whether last request's caches still apply (id equality is
  // tree equality, so the comparison is EditedDecl integer compares).
  bool SessionMatch = false;
  if (SessionRetention && TheArena) {
    SeedPrefixIds.clear();
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
      // The environment came from this request's walk, but last
      // request's verdicts and worker checkpoints are conditioned on
      // this same prefix -- take them too.
      if (SessionMatch)
        adoptRetainedCaches();
      return;
    }
  }

  // Session adoption: the previous request seeded this exact prefix and
  // its whole warm state -- environment, worker environments, verdict
  // cache -- transfers wholesale. This is the edit-resubmit hot path.
  if (SessionMatch && Retained.Checkpoint &&
      Retained.Checkpoint->prefixLength() == EditedDecl) {
    Checkpoint = std::move(Retained.Checkpoint);
    PrefixClone = std::move(Retained.PrefixClone);
    ++Counters.CheckpointSeeds;
    adoptRetainedCaches();
    return;
  }

  PrefixClone.Decls.reserve(EditedDecl);
  for (unsigned I = 0; I < EditedDecl; ++I)
    PrefixClone.Decls.push_back(Prog.Decls[I]->clone());
  if (Accel.Checkpoint) {
    Checkpoint = InferenceCheckpoint::create(Prog, EditedDecl);
    if (Checkpoint)
      ++Counters.CheckpointSeeds;
  }
}

void CheckpointedOracle::adoptRetainedCaches() {
  VerdictById = std::move(Retained.Verdicts);
  WorkerCheckpoints = std::move(Retained.WorkerCheckpoints);
  Retained = RetainedSeed();
  ++Counters.SessionSeedAdoptions;
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
  Retained.WorkerCheckpoints = std::move(WorkerCheckpoints);
  for (auto &KV : VerdictById)
    KV.second |= RetainedBit;
  Retained.Verdicts = std::move(VerdictById);
}

void CheckpointedOracle::clearPrefix() {
  if (SessionRetention && Seeded && TheArena)
    stashSessionState();
  Seeded = false;
  EditedIndex = 0;
  PrefixIdentity.clear();
  PrefixClone = Program();
  Checkpoint.reset();
  WorkerCheckpoints.clear();
  VerdictCache.clear();
  // Verdicts are relative to the prefix environment, so they go; the
  // arena's interned nodes stay valid across prefixes (and requests).
  VerdictById.clear();
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
  if (!SessionRetention || !Retained.Valid || Seeded || !TheArena ||
      !Accel.Checkpoint)
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
  syncArenaStats();
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
    // growth environment directly (its verdict cache stays retained: if
    // the edited declaration still fails, seedPrefix re-adopts it).
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

const CheckpointedOracle::CacheEntry *
CheckpointedOracle::cacheLookup(uint64_t H, const Decl &D) const {
  auto It = VerdictCache.find(H);
  if (It == VerdictCache.end())
    return nullptr;
  for (const CacheEntry &E : It->second)
    if (E.EditedDecl->equals(D))
      return &E;
  return nullptr;
}

void CheckpointedOracle::cacheInsert(uint64_t H, const Decl &D, bool Verdict) {
  CacheEntry E;
  E.EditedDecl = D.clone();
  E.Typechecks = Verdict;
  VerdictCache[H].push_back(std::move(E));
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
  if (!matchesSeed(Prog)) {
    // Asked about the same program conventionalError() just inferred?
    // (The searcher's opening "does the input type-check at all" probe,
    // and the final localization round when the last declaration fails.)
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

  const Decl &D = *Prog.Decls[EditedIndex];
  if (!Accel.VerdictCache)
    return inferEditedDecl(D, Prog);

  if (TheArena) {
    // Interning replaces hash-plus-deep-compare: the walk reuses existing
    // nodes (near-zero allocation on repeats) and the resulting id *is*
    // the structural identity, so the probe is one integer lookup.
    AstArena::DeclId Id = TheArena->internDecl(D);
    syncArenaStats();
    auto Known = VerdictById.find(Id);
    if (Known != VerdictById.end()) {
      ++Counters.CacheHits;
      if (Known->second & RetainedBit)
        ++Counters.SessionVerdictReuses;
      LastServedBy = "verdict-cache";
      LastCacheHit = true;
      return (Known->second & VerdictBit) != 0;
    }
    ++Counters.CacheMisses;
    bool Verdict = inferEditedDecl(D, Prog);
    VerdictById.emplace(Id, Verdict ? VerdictBit : uint8_t(0));
    syncArenaStats();
    return Verdict;
  }

  uint64_t H = hashDecl(D);
  if (const CacheEntry *E = cacheLookup(H, D)) {
    ++Counters.CacheHits;
    LastServedBy = "verdict-cache";
    LastCacheHit = true;
    return E->Typechecks;
  }
  ++Counters.CacheMisses;
  bool Verdict = inferEditedDecl(D, Prog);
  cacheInsert(H, D, Verdict);
  return Verdict;
}

std::optional<std::string>
CheckpointedOracle::typeOfNodeImpl(const Program &Prog, const Expr *Node) {
  // Type queries bypass the verdict cache (it stores booleans, not types)
  // but still ride the checkpoint.
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

InferenceCheckpoint *CheckpointedOracle::workerCheckpoint(unsigned Worker) {
  // No seed checkpoint (layer off, or the prefix would not snapshot) --
  // don't retry per worker, the prefix is the same.
  if (!Checkpoint)
    return nullptr;
  // Worker 0 reuses the seed checkpoint: the dispatching thread blocks in
  // parallelFor, so nothing else touches it during the batch. Other
  // workers lazily build their own from the stored prefix clone; each
  // touches only its own pre-sized slot, so no locking is needed.
  if (Worker == 0)
    return Checkpoint.get();
  assert(Worker <= WorkerCheckpoints.size() && "pool grew mid-batch?");
  auto &Slot = WorkerCheckpoints[Worker - 1];
  if (!Slot)
    Slot = InferenceCheckpoint::create(PrefixClone, EditedIndex);
  return Slot.get();
}

std::vector<bool> CheckpointedOracle::typecheckBatchImpl(
    const Program &Base, const NodePath &Path,
    const std::vector<const Expr *> &Replacements) {
  // Without the parallel layer (or against an unrecognized program shape)
  // the sequential default still reaps the cache and checkpoint: it calls
  // typecheckImpl per item.
  if (!Accel.ParallelBatch || !matchesSeed(Base) ||
      Path.DeclIndex != EditedIndex)
    return Oracle::typecheckBatchImpl(Base, Path, Replacements);

  if (TheArena && Accel.VerdictCache)
    return typecheckBatchArena(Base, Path, Replacements);

  size_t N = Replacements.size();
  ++Counters.BatchesDispatched;
  Counters.BatchItems += N;

  // Materialize each candidate as an edited-declaration clone. Both the
  // single-call path and this one hash/compare these materialized decls,
  // so a verdict cached by either is visible to the other.
  NodePath Local;
  Local.Steps = Path.Steps;
  std::vector<DeclPtr> Variants;
  Variants.reserve(N);
  for (const Expr *Replacement : Replacements) {
    Program Tmp;
    Tmp.Decls.push_back(Base.Decls[EditedIndex]->clone());
    replaceAtPath(Tmp, Local, Replacement->clone());
    Variants.push_back(std::move(Tmp.Decls[0]));
  }

  // Tracing: the batch still owes one OracleCall span per logical call.
  // Cache hits and intra-batch duplicates get theirs on the dispatching
  // thread; inferred items emit from whichever worker ran them, parented
  // to the batch span. The search layer is captured here because pool
  // workers do not inherit the dispatcher's thread-local label.
  const char *Layer = traceCurrentLayer();
  auto EmitItemSpan = [&](bool Verdict, const char *ServedBy, bool CacheHit,
                          double LatencyUs) {
    TraceSpan Span(TraceOut, SpanKind::OracleCall, "oracle.typecheck");
    if (!Span.enabled())
      return;
    Span.setParent(BatchSpanId);
    Span.attr("layer", Layer);
    Span.attr("verdict", Verdict);
    Span.attr("cache_hit", CacheHit);
    Span.attr("served_by", ServedBy);
    Span.attr("latency_us", LatencyUs);
  };

  // Serial pass: resolve what the cache already knows and dedupe repeats
  // within the batch, so inference runs once per distinct candidate.
  std::vector<int> Verdicts(N, -1);
  std::vector<uint64_t> Hashes(N, 0);
  std::vector<size_t> Pending;        // Indices needing inference.
  std::vector<size_t> DupOf(N, ~size_t(0)); // Intra-batch representative.
  if (Accel.VerdictCache) {
    std::unordered_map<uint64_t, std::vector<size_t>> Fresh;
    for (size_t I = 0; I < N; ++I) {
      Hashes[I] = hashDecl(*Variants[I]);
      if (const CacheEntry *E = cacheLookup(Hashes[I], *Variants[I])) {
        ++Counters.CacheHits;
        Verdicts[I] = E->Typechecks;
        EmitItemSpan(E->Typechecks, "verdict-cache", true, 0.0);
        continue;
      }
      bool Dup = false;
      for (size_t J : Fresh[Hashes[I]])
        if (Variants[J]->equals(*Variants[I])) {
          ++Counters.CacheHits;
          DupOf[I] = J;
          Dup = true;
          break;
        }
      if (!Dup) {
        ++Counters.CacheMisses;
        Fresh[Hashes[I]].push_back(I);
        Pending.push_back(I);
      }
    }
  } else {
    for (size_t I = 0; I < N; ++I)
      Pending.push_back(I);
  }

  // Parallel pass over the distinct misses. Counters are tallied after
  // the join (workers write only to per-item slots); verdicts land in
  // per-index slots so scheduling order never reaches the caller.
  if (!Pending.empty()) {
    std::vector<char> Ok(Pending.size(), 0);
    std::vector<size_t> Allocated(Pending.size(), 0);
    std::vector<char> Incremental(Pending.size(), 0);
    bool Traced = TraceOut || MetricsOut;
    auto CheckItem = [&](unsigned Worker, size_t Item) {
      TraceSpan Span(TraceOut, SpanKind::OracleCall, "oracle.typecheck");
      Span.setParent(BatchSpanId);
      auto Start = Traced ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point();
      const Decl &D = *Variants[Pending[Item]];
      if (InferenceCheckpoint *CP = workerCheckpoint(Worker)) {
        TypecheckResult R = CP->checkDecl(D);
        Ok[Item] = R.ok();
        Allocated[Item] = R.TypesAllocated;
        Incremental[Item] = 1;
      } else {
        // No checkpoint (layer off or prefix unsnapshottable): infer the
        // full variant program. Inference is thread-safe -- the trail is
        // thread-local, and the shared standard-library base is built
        // once under a function-local static's guard and never written.
        Program Variant = PrefixClone.clone();
        Variant.Decls.push_back(D.clone());
        TypecheckResult R = typecheckProgram(Variant);
        Ok[Item] = R.ok();
        Allocated[Item] = R.TypesAllocated;
      }
      if (!Traced)
        return;
      double Us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
      if (Span.enabled()) {
        Span.attr("layer", Layer);
        Span.attr("verdict", bool(Ok[Item]));
        Span.attr("cache_hit", false);
        Span.attr("served_by", Incremental[Item] ? "checkpoint-incremental"
                                                 : "full-inference");
        Span.attr("worker", int64_t(Worker));
        Span.attr("latency_us", Us);
      }
      if (MetricsOut) {
        MetricsOut->observe(metric::OracleLatencyUs, Us);
        if (Incremental[Item])
          MetricsOut->observe(metric::CheckpointReuseDepth,
                              double(EditedIndex));
      }
    };
    if (Pending.size() < Accel.MinParallelItems) {
      // Too small to amortize a pool dispatch; same work, same results,
      // on the calling thread.
      for (size_t Item = 0; Item < Pending.size(); ++Item)
        CheckItem(0, Item);
    } else {
      if (!Pool)
        Pool = std::make_unique<ThreadPool>(Accel.Threads);
      if (WorkerCheckpoints.size() + 1 < Pool->numThreads())
        WorkerCheckpoints.resize(Pool->numThreads() - 1);
      Pool->parallelFor(Pending.size(), CheckItem);
    }
    for (size_t Item = 0; Item < Pending.size(); ++Item) {
      size_t I = Pending[Item];
      Verdicts[I] = Ok[Item];
      Counters.TypesAllocated += Allocated[Item];
      if (Incremental[Item]) {
        ++Counters.IncrementalInferences;
        Counters.DeclInferencesSaved += EditedIndex;
      } else {
        ++Counters.FullInferences;
        if (Accel.Checkpoint)
          ++Counters.CheckpointFallbacks;
      }
      if (Accel.VerdictCache)
        cacheInsert(Hashes[I], *Variants[I], Verdicts[I] != 0);
    }
  }

  // Settle intra-batch duplicates off their representatives.
  std::vector<bool> Result(N);
  for (size_t I = 0; I < N; ++I) {
    if (DupOf[I] != ~size_t(0)) {
      Verdicts[I] = Verdicts[DupOf[I]];
      EmitItemSpan(Verdicts[I] != 0, "batch-dedup", true, 0.0);
    }
    assert(Verdicts[I] >= 0 && "batch item left unresolved");
    Result[I] = Verdicts[I] != 0;
  }
  return Result;
}

std::vector<bool> CheckpointedOracle::typecheckBatchArena(
    const Program &Base, const NodePath &Path,
    const std::vector<const Expr *> &Replacements) {
  size_t N = Replacements.size();
  ++Counters.BatchesDispatched;
  Counters.BatchItems += N;

  // Copy-free candidate construction: intern the edited declaration once
  // (pure table hits after the first batch of a wave), then build each
  // candidate as a path-copied overlay. No candidate program exists as a
  // tree at this point -- only O(spine) interned nodes per novel edit.
  AstArena &A = *TheArena;
  AstArena::DeclId BaseId = A.internDecl(*Base.Decls[EditedIndex]);
  std::vector<AstArena::DeclId> Ids(N, AstArena::InvalidId);
  for (size_t I = 0; I < N; ++I)
    Ids[I] =
        A.overlayDecl(BaseId, Path.Steps, A.internExpr(*Replacements[I]));

  // Tracing mirrors the hash-keyed batch: one OracleCall span per logical
  // call, hits and duplicates emitted on the dispatching thread.
  const char *Layer = traceCurrentLayer();
  auto EmitItemSpan = [&](bool Verdict, const char *ServedBy, bool CacheHit,
                          double LatencyUs) {
    TraceSpan Span(TraceOut, SpanKind::OracleCall, "oracle.typecheck");
    if (!Span.enabled())
      return;
    Span.setParent(BatchSpanId);
    Span.attr("layer", Layer);
    Span.attr("verdict", Verdict);
    Span.attr("cache_hit", CacheHit);
    Span.attr("served_by", ServedBy);
    Span.attr("latency_us", LatencyUs);
  };

  // Serial pass: id lookups against the cache, then wave-level overlay
  // dedup -- two candidates collapsing to the same interned tree are
  // detected by comparing two integers (the legacy path needed a hash
  // bucket scan plus deep equality). Only distinct misses materialize,
  // here on the dispatching thread: pool workers never touch the arena.
  std::vector<int> Verdicts(N, -1);
  std::vector<size_t> Pending;            // Indices needing inference.
  std::vector<DeclPtr> PendingDecls;      // Their materialized trees.
  std::vector<size_t> DupOf(N, ~size_t(0)); // Intra-batch representative.
  std::unordered_map<AstArena::DeclId, size_t> FreshById;
  uint64_t Collapsed = 0;
  for (size_t I = 0; I < N; ++I) {
    auto Known = VerdictById.find(Ids[I]);
    if (Known != VerdictById.end()) {
      ++Counters.CacheHits;
      if (Known->second & RetainedBit)
        ++Counters.SessionVerdictReuses;
      bool KnownVerdict = (Known->second & VerdictBit) != 0;
      Verdicts[I] = KnownVerdict;
      EmitItemSpan(KnownVerdict, "verdict-cache", true, 0.0);
      continue;
    }
    auto Fresh = FreshById.find(Ids[I]);
    if (Fresh != FreshById.end()) {
      // Same interned tree as an earlier candidate in this wave: billed
      // as a cache hit exactly like the legacy dedup, plus the collapse
      // counter the telemetry explorer reports per layer.
      ++Counters.CacheHits;
      ++Collapsed;
      DupOf[I] = Fresh->second;
      continue;
    }
    ++Counters.CacheMisses;
    FreshById.emplace(Ids[I], I);
    Pending.push_back(I);
    PendingDecls.push_back(A.materializeDecl(Ids[I]));
  }
  Counters.WaveCollapsed += Collapsed;
  LastWaveCollapsed = Collapsed;

  // Parallel pass over the distinct misses; identical to the hash-keyed
  // batch except items come from PendingDecls.
  if (!Pending.empty()) {
    std::vector<char> Ok(Pending.size(), 0);
    std::vector<size_t> Allocated(Pending.size(), 0);
    std::vector<char> Incremental(Pending.size(), 0);
    bool Traced = TraceOut || MetricsOut;
    auto CheckItem = [&](unsigned Worker, size_t Item) {
      TraceSpan Span(TraceOut, SpanKind::OracleCall, "oracle.typecheck");
      Span.setParent(BatchSpanId);
      auto Start = Traced ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point();
      const Decl &D = *PendingDecls[Item];
      if (InferenceCheckpoint *CP = workerCheckpoint(Worker)) {
        TypecheckResult R = CP->checkDecl(D);
        Ok[Item] = R.ok();
        Allocated[Item] = R.TypesAllocated;
        Incremental[Item] = 1;
      } else {
        Program Variant = PrefixClone.clone();
        Variant.Decls.push_back(D.clone());
        TypecheckResult R = typecheckProgram(Variant);
        Ok[Item] = R.ok();
        Allocated[Item] = R.TypesAllocated;
      }
      if (!Traced)
        return;
      double Us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
      if (Span.enabled()) {
        Span.attr("layer", Layer);
        Span.attr("verdict", bool(Ok[Item]));
        Span.attr("cache_hit", false);
        Span.attr("served_by", Incremental[Item] ? "checkpoint-incremental"
                                                 : "full-inference");
        Span.attr("worker", int64_t(Worker));
        Span.attr("latency_us", Us);
      }
      if (MetricsOut) {
        MetricsOut->observe(metric::OracleLatencyUs, Us);
        if (Incremental[Item])
          MetricsOut->observe(metric::CheckpointReuseDepth,
                              double(EditedIndex));
      }
    };
    if (Pending.size() < Accel.MinParallelItems) {
      for (size_t Item = 0; Item < Pending.size(); ++Item)
        CheckItem(0, Item);
    } else {
      if (!Pool)
        Pool = std::make_unique<ThreadPool>(Accel.Threads);
      if (WorkerCheckpoints.size() + 1 < Pool->numThreads())
        WorkerCheckpoints.resize(Pool->numThreads() - 1);
      Pool->parallelFor(Pending.size(), CheckItem);
    }
    for (size_t Item = 0; Item < Pending.size(); ++Item) {
      size_t I = Pending[Item];
      Verdicts[I] = Ok[Item];
      Counters.TypesAllocated += Allocated[Item];
      if (Incremental[Item]) {
        ++Counters.IncrementalInferences;
        Counters.DeclInferencesSaved += EditedIndex;
      } else {
        ++Counters.FullInferences;
        if (Accel.Checkpoint)
          ++Counters.CheckpointFallbacks;
      }
      VerdictById.emplace(Ids[I], Ok[Item] ? VerdictBit : uint8_t(0));
    }
  }

  // Settle intra-batch duplicates off their representatives.
  std::vector<bool> Result(N);
  for (size_t I = 0; I < N; ++I) {
    if (DupOf[I] != ~size_t(0)) {
      Verdicts[I] = Verdicts[DupOf[I]];
      EmitItemSpan(Verdicts[I] != 0, "batch-dedup", true, 0.0);
    }
    assert(Verdicts[I] >= 0 && "batch item left unresolved");
    Result[I] = Verdicts[I] != 0;
  }
  syncArenaStats();
  return Result;
}
