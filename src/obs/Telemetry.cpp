//===- Telemetry.cpp - Outcome telemetry sink ------------------------------==//

#include "obs/Telemetry.h"

using namespace seminal;
using namespace seminal::obs;

void TelemetrySink::record(CandidateOutcome O) {
  sync::MutexLock Lock(Mutex);
  Records.push_back(std::move(O));
}

size_t TelemetrySink::size() const {
  sync::MutexLock Lock(Mutex);
  return Records.size();
}

std::vector<CandidateOutcome> TelemetrySink::snapshot() const {
  sync::MutexLock Lock(Mutex);
  return Records;
}

void TelemetrySink::clear() {
  sync::MutexLock Lock(Mutex);
  Records.clear();
}

std::map<std::string, LayerStats> TelemetrySink::layerStats() const {
  sync::MutexLock Lock(Mutex);
  std::map<std::string, LayerStats> Stats;
  for (const CandidateOutcome &O : Records) {
    if (O.Rank > 0)
      continue; // post-ranking duplicate of an already-counted outcome
    LayerStats &S = Stats[O.Layer];
    ++S.Tried;
    if (O.Verdict)
      ++S.Succeeded;
  }
  return Stats;
}
