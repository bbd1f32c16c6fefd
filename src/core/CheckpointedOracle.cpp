//===- CheckpointedOracle.cpp - Accelerated type-check oracle --------------==//

#include "core/CheckpointedOracle.h"

#include <algorithm>
#include <cassert>

using namespace seminal;
using namespace seminal::caml;

CheckpointedOracle::CheckpointedOracle(const OracleAccelOptions &,
                                       std::shared_ptr<AstArena>) {}

CheckpointedOracle::~CheckpointedOracle() = default;

void CheckpointedOracle::setSessionRetention(bool Enabled) {
  SessionRetention = Enabled;
  if (!SessionRetention)
    resetSession();
}

void CheckpointedOracle::resetSession() {
  Env.reset();
  Good.clear();
  Failing.reset();
  FromSession = false;
}

uint64_t CheckpointedOracle::retainedBytes() const {
  return SessionRetention && Env ? Env->arenaBytes() : 0;
}

std::optional<TypeError>
CheckpointedOracle::conventionalError(const Program &Prog) {
  if (Seeded)
    clearPrefix();
  // A session starts from the environment it kept when that environment's
  // declarations open this program too; the request's own (equal)
  // declarations become the keys the searcher's probes will carry.
  size_t Adopted = 0;
  if (SessionRetention && Env && !Good.empty() &&
      Good.size() <= Prog.Decls.size()) {
    while (Adopted < Good.size() &&
           Prog.Decls[Adopted]->equals(*Good[Adopted]))
      ++Adopted;
    if (Adopted < Good.size())
      Adopted = 0;
  }
  if (Adopted) {
    std::copy(Prog.Decls.begin(), Prog.Decls.begin() + Adopted, Good.begin());
    Counters.SessionPrefixHits += Adopted;
  } else {
    Env = InferenceCheckpoint::create(Prog, 0);
    Good.clear();
  }
  FromSession = Adopted > 0;
  Failing.reset();
  Good.reserve(Prog.Decls.size());

  // The checker's message: extend declaration by declaration up to the
  // first failure, exactly where a whole-program run stops. Rendered to
  // show the baseline message, not search work, so it stays out of the
  // counters.
  for (size_t I = Good.size(); I < Prog.Decls.size(); ++I) {
    TypecheckResult R = Env->extendWith(*Prog.Decls[I]);
    if (!R.ok()) {
      Failing = Prog.Decls[I];
      if (Failing->kind() != Decl::Kind::Let) {
        // Partial constructor table entries: the environment is void,
        // though what it proved still stands.
        Env.reset();
        FromSession = false;
      }
      return R.Error;
    }
    Good.push_back(Prog.Decls[I]);
  }
  return std::nullopt;
}

void CheckpointedOracle::seedPrefix(const Program &Prog, unsigned EditedDecl) {
  if (Seeded)
    clearPrefix();
  if (EditedDecl >= Prog.Decls.size())
    return;
  Seeded = true;
  EditedIndex = EditedDecl;

  // After the conventional run the environment covers exactly the
  // declarations before the failing one, which the searcher's working
  // program shares.
  bool Covers = Env && Good.size() == EditedDecl;
  for (unsigned I = 0; Covers && I < EditedDecl; ++I)
    Covers = Prog.Decls[I] == Good[I];
  if (Covers) {
    ++Counters.CheckpointSeeds;
    Counters.SessionSeedAdoptions += FromSession;
    return;
  }

  // Seeded without the conventional run, or at another index: snapshot
  // the prefix afresh.
  Env = InferenceCheckpoint::create(Prog, EditedDecl);
  FromSession = false;
  Failing.reset();
  Good.clear();
  if (!Env)
    return;
  Good.assign(Prog.Decls.begin(), Prog.Decls.begin() + EditedDecl);
  ++Counters.CheckpointSeeds;
}

void CheckpointedOracle::clearPrefix() {
  Seeded = false;
  EditedIndex = 0;
  // Only a session asks about these declarations again.
  if (!SessionRetention)
    Env.reset();
}

bool CheckpointedOracle::matchesSeed(const Program &Prog) const {
  if (!Seeded || !Env || Prog.Decls.size() != size_t(EditedIndex) + 1)
    return false;
  assert(Good.size() == EditedIndex && "the seed covers its prefix");
  // The searcher shares the prefix declarations and edits only its own
  // clone of the last one, so pointer comparison makes the match
  // O(prefix) with no tree walk. A caller holding different (even
  // structurally equal) prefix objects simply falls back to full
  // inference -- never wrong, only slow.
  for (unsigned I = 0; I < EditedIndex; ++I)
    if (Prog.Decls[I] != Good[I])
      return false;
  // Only Let declarations may be replayed against a checkpoint (type and
  // exception declarations mutate untrailed global tables).
  return Prog.Decls[EditedIndex]->kind() == Decl::Kind::Let;
}

std::optional<bool>
CheckpointedOracle::knownVerdict(const Program &Prog) const {
  const size_t N = Prog.Decls.size();
  const size_t Keys = Good.size() + (Failing ? 1 : 0);
  if (N > Keys && !Failing)
    return std::nullopt;
  // The same object is the same declaration: they are immutable, and the
  // record holds them, so no other declaration can reuse the address.
  for (size_t I = 0; I < std::min(N, Keys); ++I)
    if (Prog.Decls[I] != (I < Good.size() ? Good[I] : Failing))
      return std::nullopt;
  // The checker stops at the first failure, so a program that reaches
  // Failing fails whatever follows it.
  return N <= Good.size();
}

TypecheckResult CheckpointedOracle::infer(const Program &Prog, bool Seed,
                                          const Expr *QueryNode) {
  TypecheckResult R;
  if (Seed) {
    ++Counters.IncrementalInferences;
    Counters.DeclInferencesSaved += EditedIndex;
    LastServedBy = "checkpoint-incremental";
    LastReuseDepth = int64_t(EditedIndex);
    R = Env->queryDecl(*Prog.Decls[EditedIndex], QueryNode);
  } else {
    if (Seeded)
      ++Counters.CheckpointFallbacks;
    ++Counters.FullInferences;
    TypecheckOptions Opts;
    Opts.QueryNode = QueryNode;
    R = typecheckProgram(Prog, Opts);
  }
  Counters.TypesAllocated += R.TypesAllocated;
  return R;
}

bool CheckpointedOracle::typecheckImpl(const Program &Prog) {
  bool Seed = matchesSeed(Prog);
  if (!Seed)
    if (std::optional<bool> Known = knownVerdict(Prog)) {
      ++Counters.CacheHits;
      LastServedBy = "known-prefix";
      LastCacheHit = true;
      return *Known;
    }
  return infer(Prog, Seed, nullptr).ok();
}

std::optional<std::string>
CheckpointedOracle::typeOfNodeImpl(const Program &Prog, const Expr *Node) {
  TypecheckResult R = infer(Prog, matchesSeed(Prog), Node);
  if (!R.ok())
    return std::nullopt;
  return R.QueriedType;
}
