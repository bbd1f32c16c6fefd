//===- RunReport.cpp - Versioned machine-readable run outcome --------------==//

#include "obs/RunReport.h"

#include "support/Trace.h" // jsonEscape, searchLayerName

#include <cmath>

using namespace seminal;
using namespace seminal::obs;

namespace {

/// Tiny structural JSON emitter: tracks nesting and comma placement so
/// the report serializer reads as a flat list of field writes. Compact
/// mode emits everything on one line (JSONL); pretty mode indents.
class JsonOut {
public:
  JsonOut(std::ostream &OS, bool Pretty) : OS(OS), Pretty(Pretty) {}

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  void key(const char *K) {
    comma();
    OS << '"' << jsonEscape(K) << "\":";
    if (Pretty)
      OS << ' ';
    PendingValue = true;
  }

  void value(const std::string &S) { pre(); OS << '"' << jsonEscape(S) << '"'; }
  void value(const char *S) { value(std::string(S)); }
  void value(bool B) { pre(); OS << (B ? "true" : "false"); }
  void value(int64_t N) { pre(); OS << N; }
  void value(uint64_t N) { pre(); OS << N; }
  void value(int N) { value(int64_t(N)); }
  void value(unsigned N) { value(uint64_t(N)); }
  void value(double D) {
    pre();
    if (!std::isfinite(D)) {
      OS << 0; // JSON has no inf/nan; zero is the honest sentinel here
      return;
    }
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6g", D);
    OS << Buf;
  }

  template <typename T> void field(const char *K, const T &V) {
    key(K);
    value(V);
  }

private:
  void open(char C) {
    pre();
    OS << C;
    ++Depth;
    First = true;
  }
  void close(char C) {
    --Depth;
    if (Pretty && !First)
      newline();
    OS << C;
    First = false;
  }
  /// Called before any value; handles the element comma for array
  /// members (object members get theirs from key()).
  void pre() {
    if (PendingValue) {
      PendingValue = false;
      return;
    }
    comma();
  }
  void comma() {
    if (!First)
      OS << ',';
    First = false;
    if (Pretty)
      newline();
  }
  void newline() {
    OS << '\n';
    for (int I = 0; I < Depth; ++I)
      OS << "  ";
  }

  std::ostream &OS;
  bool Pretty;
  bool First = true;
  bool PendingValue = false;
  int Depth = 0;
};

void writeStringArray(JsonOut &J, const char *Key,
                      const std::vector<std::string> &Values) {
  J.key(Key);
  J.beginArray();
  for (const std::string &V : Values)
    J.value(V);
  J.endArray();
}

} // namespace

void RunReport::writeJson(std::ostream &OS, bool Pretty) const {
  JsonOut J(OS, Pretty);
  J.beginObject();
  J.field("schema_version", SchemaVersion);

  J.key("program");
  J.beginObject();
  J.field("id", ProgramId);
  J.field("programmer", Programmer);
  J.field("assignment", Assignment);
  J.field("class_id", ClassId);
  J.field("source_hash", SourceHash);
  writeStringArray(J, "mutations", MutationKinds);
  J.endObject();

  J.key("outcome");
  J.beginObject();
  J.field("parsed", Parsed);
  J.field("input_typechecks", InputTypechecks);
  J.field("budget_exhausted", BudgetExhausted);
  J.field("failing_decl", FailingDecl);
  J.field("winning_layer", WinningLayer);
  J.field("winning_kind", WinningKind);
  J.key("suggestions");
  J.beginArray();
  for (const SuggestionOutcome &S : Suggestions) {
    J.beginObject();
    J.field("rank", S.Rank);
    J.field("kind", S.Kind);
    J.field("layer", S.Layer);
    J.field("description", S.Description);
    J.field("path", S.Path);
    J.field("via_triage", S.ViaTriage);
    J.field("in_slice", S.InSlice);
    J.field("likely_unbound", S.LikelyUnbound);
    J.field("priority", S.Priority);
    J.field("original_size", S.OriginalSize);
    J.field("replacement_size", S.ReplacementSize);
    J.endObject();
  }
  J.endArray();
  J.endObject();

  J.key("quality");
  J.beginObject();
  J.field("checker", QualityChecker);
  J.field("ours", QualityOurs);
  J.field("ours_no_triage", QualityNoTriage);
  J.field("bucket", Bucket);
  J.field("rank_of_true_fix", RankOfTrueFix);
  J.endObject();

  J.key("effort");
  J.beginObject();
  J.field("oracle_calls", OracleCalls);
  J.field("inference_runs", InferenceRuns);
  J.field("wall_seconds", WallSeconds);
  J.field("cache_hits", Accel.CacheHits);
  J.field("incremental_inferences", Accel.IncrementalInferences);
  J.field("full_inferences", Accel.FullInferences);
  J.field("decl_rechecks_saved", Accel.DeclInferencesSaved);
  J.field("arena_bytes", Accel.ArenaBytes);
  // The cost ledger (schema v2) repeats fields above, in the layout the
  // daemon's check replies share.
  J.key("cost");
  J.beginObject();
  J.field("cpu_ns", CpuNs);
  J.field("wall_ns", uint64_t(WallSeconds * 1e9));
  J.field("oracle_calls", OracleCalls);
  J.field("inference_runs", InferenceRuns);
  J.field("arena_bytes", Accel.ArenaBytes);
  J.field("verdict_cache_hits", Accel.CacheHits);
  J.endObject();
  // The call ledger (schema v6): every layer that asked, in search order.
  J.key("layers");
  J.beginObject();
  for (size_t I = 0; I < NumSearchLayers; ++I) {
    const LayerCalls &L = Layers.Slots[I];
    if (!L.Calls)
      continue;
    J.key(searchLayerName(SearchLayer(I)));
    J.beginObject();
    J.field("calls", L.Calls);
    J.field("accepted", L.Accepted);
    J.endObject();
  }
  J.endObject();
  J.endObject();

  J.key("slice");
  J.beginObject();
  J.field("valid", SliceValid);
  J.field("influence", SliceInfluence);
  J.field("core", SliceCore);
  writeStringArray(J, "core_paths", SliceCorePaths);
  writeStringArray(J, "influence_paths", SliceInfluencePaths);
  J.endObject();

  J.endObject();
}
