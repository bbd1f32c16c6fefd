//===- OpsTest.cpp - Live-observability layer tests -------------------------==//
//
// Pins the contracts the scrape path depends on (DESIGN.md section 14):
// LogHistogram's bucket math (exact below 64, bounded relative error
// above, one overflow bucket, merge == single stream), OpsRegistry's
// typed families and both renderers (Prometheus exposition validity,
// JSON that json::parse accepts), the structured logger's level gate
// and both line formats, and the slow-trace ring's bounded-disk
// guarantee.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "obs/OpsRegistry.h"
#include "obs/Slo.h"
#include "obs/SlowTraceRing.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace seminal;
using namespace seminal::obs;

namespace {

//===----------------------------------------------------------------------===//
// LogHistogram
//===----------------------------------------------------------------------===//

TEST(LogHistogramTest, EmptyIsAllZeros) {
  LogHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  HistogramSummary S = H.summarize();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.P99, 0u);
  EXPECT_EQ(S.Mean, 0.0);
}

TEST(LogHistogramTest, SingleSampleIsExactEverywhere) {
  LogHistogram H;
  H.record(42);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.sum(), 42u);
  EXPECT_EQ(H.min(), 42u);
  EXPECT_EQ(H.max(), 42u);
  EXPECT_EQ(H.quantile(0.0), 42u);
  EXPECT_EQ(H.quantile(0.5), 42u);
  EXPECT_EQ(H.quantile(1.0), 42u);
  HistogramSummary S = H.summarize();
  EXPECT_EQ(S.P50, 42u);
  EXPECT_EQ(S.P99, 42u);
  EXPECT_EQ(S.Mean, 42.0);
}

TEST(LogHistogramTest, ValuesBelow64AreExact) {
  LogHistogram H;
  for (uint64_t V = 0; V < 64; ++V)
    H.record(V);
  // Every small value owns a width-1 bucket: quantiles land exactly.
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(1.0), 63u);
  for (uint64_t V = 0; V < 64; ++V)
    EXPECT_EQ(LogHistogram::bucketLowerBound(LogHistogram::bucketIndex(V)), V);
}

TEST(LogHistogramTest, QuantileErrorIsBoundedBySubBucketWidth) {
  LogHistogram H;
  std::mt19937_64 Rng(7);
  std::vector<uint64_t> Values;
  for (int I = 0; I < 10000; ++I) {
    uint64_t V = 64 + Rng() % 1000000;
    Values.push_back(V);
    H.record(V);
  }
  std::sort(Values.begin(), Values.end());
  for (double Q : {0.5, 0.9, 0.95, 0.99}) {
    // Same nearest-rank convention as the implementation (1-indexed).
    size_t Rank = std::max<size_t>(
        1, size_t(std::ceil(Q * double(Values.size()))));
    uint64_t Exact = Values[Rank - 1];
    uint64_t Approx = H.quantile(Q);
    // Lower bound of the containing bucket: never above the true value,
    // never more than one sub-bucket (1/32 relative) below it.
    EXPECT_LE(Approx, Exact);
    EXPECT_GE(double(Approx), double(Exact) * (1.0 - 2.0 / 32.0))
        << "q=" << Q << " exact=" << Exact << " approx=" << Approx;
  }
}

TEST(LogHistogramTest, OverflowBucketClampsButTracksRawExtremes) {
  LogHistogram H;
  uint64_t Huge = uint64_t(1) << 50;
  H.record(Huge);
  H.record(Huge + 12345);
  EXPECT_EQ(LogHistogram::bucketIndex(Huge), LogHistogram::NumBuckets - 1);
  EXPECT_EQ(H.count(), 2u);
  // Quantiles saturate at the overflow bucket's lower bound...
  EXPECT_EQ(H.quantile(1.0), uint64_t(1) << 40);
  // ...while min/max keep the raw values.
  EXPECT_EQ(H.min(), Huge);
  EXPECT_EQ(H.max(), Huge + 12345);
}

TEST(LogHistogramTest, BucketIndexIsMonotoneAndLowerBoundInverts) {
  size_t Prev = 0;
  for (uint64_t V = 0; V < (1u << 12); ++V) {
    size_t I = LogHistogram::bucketIndex(V);
    EXPECT_GE(I, Prev);
    EXPECT_LE(LogHistogram::bucketLowerBound(I), V);
    Prev = I;
  }
  // Spot-check large magnitudes across several powers of two.
  for (unsigned Exp = 12; Exp <= 39; ++Exp) {
    uint64_t V = (uint64_t(1) << Exp) + (uint64_t(1) << (Exp - 3));
    size_t I = LogHistogram::bucketIndex(V);
    uint64_t Lo = LogHistogram::bucketLowerBound(I);
    EXPECT_LE(Lo, V);
    EXPECT_GT(double(Lo), double(V) * (1.0 - 2.0 / 32.0));
  }
}

TEST(LogHistogramTest, MergedShardsEqualSingleStream) {
  // The scrape-time merge contract: recording a stream sharded across N
  // histograms and merging them is bit-identical to recording the whole
  // stream into one histogram.
  LogHistogram Shards[4];
  LogHistogram Single;
  std::mt19937_64 Rng(11);
  for (int I = 0; I < 20000; ++I) {
    uint64_t V = Rng() % (uint64_t(1) << 44); // spills into overflow too
    Shards[I % 4].record(V);
    Single.record(V);
  }
  LogHistogram Merged;
  for (LogHistogram &S : Shards)
    Merged.merge(S);
  EXPECT_EQ(Merged.count(), Single.count());
  EXPECT_EQ(Merged.sum(), Single.sum());
  EXPECT_EQ(Merged.min(), Single.min());
  EXPECT_EQ(Merged.max(), Single.max());
  for (size_t I = 0; I < LogHistogram::NumBuckets; ++I)
    ASSERT_EQ(Merged.bucketLoad(I), Single.bucketLoad(I)) << "bucket " << I;
  for (double Q : {0.5, 0.9, 0.99})
    EXPECT_EQ(Merged.quantile(Q), Single.quantile(Q));
}

TEST(LogHistogramTest, ConcurrentRecordLosesNothing) {
  LogHistogram H;
  constexpr int Threads = 4, PerThread = 25000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, T] {
      for (int I = 0; I < PerThread; ++I)
        H.record(uint64_t(T) * PerThread + I);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(H.count(), uint64_t(Threads) * PerThread);
  uint64_t N = uint64_t(Threads) * PerThread;
  EXPECT_EQ(H.sum(), N * (N - 1) / 2);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), N - 1);
}

TEST(LogHistogramTest, MergeUnderConcurrentRecordStress) {
  // The scrape path merges per-shard histograms while shard workers are
  // still recording (DESIGN.md section 15). The relaxed-ordering
  // contract (see Histogram.cpp) promises per-counter atomicity, never
  // cross-counter consistency: a mid-load merge may observe Count ahead
  // of or behind the bucket array, but no increment may be lost, torn
  // or invented. This test races sequential scrape-merges against four
  // recording threads -- the TSan CI job proves the data-race freedom,
  // the assertions pin what relaxed still guarantees.
  constexpr int NumShards = 4, PerShard = 20000, Scrapes = 64;
  LogHistogram Shard[NumShards];
  std::vector<std::thread> Writers;
  for (int T = 0; T < NumShards; ++T)
    Writers.emplace_back([&Shard, T] {
      std::mt19937_64 Rng(uint64_t(T) + 1);
      for (int I = 0; I < PerShard; ++I)
        Shard[T].record(Rng() % (uint64_t(1) << 44));
    });
  uint64_t PrevCount = 0;
  for (int S = 0; S < Scrapes; ++S) {
    LogHistogram Merged;
    for (LogHistogram &H : Shard)
      Merged.merge(H);
    // Per-counter coherence: each shard's Count is monotone, so
    // sequential scrapes see monotone merged counts, bounded by the
    // total the writers will eventually reach.
    uint64_t C = Merged.count();
    EXPECT_GE(C, PrevCount);
    EXPECT_LE(C, uint64_t(NumShards) * PerShard);
    PrevCount = C;
    // Derived views must stay sane mid-load (quantile() degrades to
    // the last populated bucket when Count runs ahead of the buckets).
    HistogramSummary Sum = Merged.summarize();
    EXPECT_LE(Sum.P50, Sum.P99);
    (void)Merged.quantile(0.999);
  }
  for (std::thread &W : Writers)
    W.join();
  // Writers quiesced (join is the release/acquire edge that publishes
  // every counter): a final merge is exact, bucket-for-bucket equal to
  // a single-stream replay from the same seeds.
  LogHistogram Merged, Reference;
  for (LogHistogram &H : Shard)
    Merged.merge(H);
  for (int T = 0; T < NumShards; ++T) {
    std::mt19937_64 Rng(uint64_t(T) + 1);
    for (int I = 0; I < PerShard; ++I)
      Reference.record(Rng() % (uint64_t(1) << 44));
  }
  EXPECT_EQ(Merged.count(), Reference.count());
  EXPECT_EQ(Merged.sum(), Reference.sum());
  EXPECT_EQ(Merged.min(), Reference.min());
  EXPECT_EQ(Merged.max(), Reference.max());
  for (size_t I = 0; I < LogHistogram::NumBuckets; ++I)
    ASSERT_EQ(Merged.bucketLoad(I), Reference.bucketLoad(I)) << "bucket " << I;
}

TEST(LogHistogramTest, ResetDropsEverything) {
  LogHistogram H;
  H.record(5);
  H.record(500);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.quantile(0.99), 0u);
}

//===----------------------------------------------------------------------===//
// HistogramSnapshot: windowed views without resetting the live histogram
//===----------------------------------------------------------------------===//

TEST(HistogramSnapshotTest, SnapshotAgreesWithTheLiveHistogram) {
  LogHistogram H;
  std::mt19937_64 Rng(3);
  for (int I = 0; I < 5000; ++I)
    H.record(Rng() % 1000000);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, H.count());
  EXPECT_EQ(S.Sum, H.sum());
  EXPECT_EQ(S.Min, H.min());
  EXPECT_EQ(S.Max, H.max());
  for (double Q : {0.5, 0.9, 0.95, 0.99})
    EXPECT_EQ(S.quantile(Q), H.quantile(Q));
  for (size_t I = 0; I < LogHistogram::NumBuckets; ++I)
    ASSERT_EQ(S.Buckets[I], H.bucketLoad(I)) << "bucket " << I;
  HistogramSummary A = S.summarize(), B = H.summarize();
  EXPECT_EQ(A.Count, B.Count);
  EXPECT_EQ(A.P50, B.P50);
  EXPECT_EQ(A.P99, B.P99);
}

TEST(HistogramSnapshotTest, DeltaIsExactlyTheIntervalHistogram) {
  // The windowing contract the SLO tracker rides on: the delta between
  // two snapshots equals a histogram of just the interval's samples.
  LogHistogram H, IntervalOnly;
  for (uint64_t V : {3u, 40u, 700u, 90000u})
    H.record(V);
  HistogramSnapshot Before = H.snapshot();
  for (uint64_t V : {5u, 40u, 123456u}) {
    H.record(V);
    IntervalOnly.record(V);
  }
  HistogramSnapshot D = H.snapshotDelta(Before);
  HistogramSnapshot Ref = IntervalOnly.snapshot();
  EXPECT_EQ(D.Count, 3u);
  EXPECT_EQ(D.Sum, Ref.Sum);
  for (size_t I = 0; I < HistogramSnapshot::NumBuckets; ++I)
    ASSERT_EQ(D.Buckets[I], Ref.Buckets[I]) << "bucket " << I;
  // Min/Max are cumulative statistics with no interval meaning: a delta
  // zeroes them rather than inventing values.
  EXPECT_EQ(D.Min, 0u);
  EXPECT_EQ(D.Max, 0u);
  // An empty interval deltas to an all-zero snapshot.
  HistogramSnapshot Z = H.snapshotDelta(H.snapshot());
  EXPECT_EQ(Z.Count, 0u);
  EXPECT_EQ(Z.Sum, 0u);
  EXPECT_EQ(Z.quantile(0.99), 0u);
  EXPECT_EQ(Z.countAbove(0), 0u);
}

TEST(HistogramSnapshotTest, MergeComposesAdjacentDeltas) {
  // delta(A,C) == delta(A,B) + delta(B,C): a long window stitched from
  // two short ones is exact, which lets the tracker keep a sparse ring.
  LogHistogram H;
  std::mt19937_64 Rng(17);
  auto Burst = [&H, &Rng] {
    for (int I = 0; I < 1000; ++I)
      H.record(Rng() % (uint64_t(1) << 30));
  };
  HistogramSnapshot A = H.snapshot();
  Burst();
  HistogramSnapshot B = H.snapshot();
  Burst();
  HistogramSnapshot C = H.snapshot();
  HistogramSnapshot Long = C.deltaFrom(A);
  HistogramSnapshot Stitched = B.deltaFrom(A);
  Stitched.merge(C.deltaFrom(B));
  EXPECT_EQ(Stitched.Count, Long.Count);
  EXPECT_EQ(Stitched.Sum, Long.Sum);
  for (size_t I = 0; I < HistogramSnapshot::NumBuckets; ++I)
    ASSERT_EQ(Stitched.Buckets[I], Long.Buckets[I]) << "bucket " << I;
  for (double Q : {0.5, 0.99})
    EXPECT_EQ(Stitched.quantile(Q), Long.quantile(Q));
}

TEST(HistogramSnapshotTest, CountAboveIsExactBelowSixtyFour) {
  LogHistogram H;
  for (uint64_t V = 0; V < 64; ++V)
    H.record(V);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.countAbove(0), 63u);
  EXPECT_EQ(S.countAbove(31), 32u);
  EXPECT_EQ(S.countAbove(63), 0u);
  EXPECT_EQ(S.countAbove(1000000), 0u);
}

TEST(HistogramSnapshotTest, CountAboveNeverOvercountsLargeValues) {
  // Above 64 the answer is bucket-quantized: a bucket straddling the
  // threshold counts as "not above", so an SLO target never accuses
  // requests that sit exactly at the target.
  LogHistogram H;
  for (int I = 0; I < 100; ++I)
    H.record(1000);
  for (int I = 0; I < 7; ++I)
    H.record(100000);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.countAbove(1000), 7u);
  EXPECT_EQ(S.countAbove(99), 107u);
  EXPECT_EQ(S.countAbove(100000), 0u);
}

//===----------------------------------------------------------------------===//
// SloTracker: burn rates from histogram deltas, injected clock
//===----------------------------------------------------------------------===//

constexpr uint64_t SloSec = 1000000000ull; // 1s in the tracker's ns clock

SloConfig sloTestConfig() {
  SloConfig Cfg;
  Cfg.TargetUs = 1000;      // 1ms target
  Cfg.ObjectivePct = 90.0;  // error budget: 10% of checks may miss
  Cfg.FastWindowNs = 32 * SloSec;
  Cfg.SlowWindowNs = 320 * SloSec;
  return Cfg;
}

TEST(SloTrackerTest, BurnMatchesTheHandComputedRatio) {
  SloTracker T(sloTestConfig());
  LogHistogram H;

  // First tick seeds the ring; nothing recorded yet, nothing burns.
  SloTracker::Burn B0 = T.tick(1 * SloSec, H);
  EXPECT_EQ(B0.Fast.Total, 0u);
  EXPECT_EQ(B0.Fast.Burn, 0.0);
  EXPECT_EQ(B0.Slow.Burn, 0.0);

  // 8 fast checks + 2 misses = 20% bad against a 10% budget: burn 2x.
  for (int I = 0; I < 8; ++I)
    H.record(10);
  H.record(100000);
  H.record(100000);
  SloTracker::Burn B1 = T.tick(2 * SloSec, H);
  EXPECT_EQ(B1.Fast.Total, 10u);
  EXPECT_EQ(B1.Fast.Bad, 2u);
  EXPECT_NEAR(B1.Fast.Burn, 2.0, 1e-12);
  EXPECT_NEAR(B1.Slow.Burn, 2.0, 1e-12);
  EXPECT_EQ(B1.Fast.SpanNs, 1 * SloSec);
}

TEST(SloTrackerTest, AllGoodTrafficBurnsZero) {
  SloTracker T(sloTestConfig());
  LogHistogram H;
  T.tick(1 * SloSec, H);
  for (int I = 0; I < 100; ++I)
    H.record(50);
  SloTracker::Burn B = T.tick(2 * SloSec, H);
  EXPECT_EQ(B.Fast.Total, 100u);
  EXPECT_EQ(B.Fast.Bad, 0u);
  EXPECT_EQ(B.Fast.Burn, 0.0);
}

TEST(SloTrackerTest, QuietWindowDecaysToZero) {
  SloTracker T(sloTestConfig());
  LogHistogram H;
  T.tick(1 * SloSec, H);
  for (int I = 0; I < 4; ++I)
    H.record(500000); // all bad: burn 10x
  SloTracker::Burn Hot = T.tick(2 * SloSec, H);
  EXPECT_NEAR(Hot.Fast.Burn, 10.0, 1e-12);
  // Long idle stretch: the bad samples age out of both windows (the
  // snapshot at the window boundary already contains them, so the
  // delta is empty) and the burn returns to zero.
  SloTracker::Burn Quiet = T.tick(400 * SloSec, H);
  EXPECT_EQ(Quiet.Fast.Total, 0u);
  EXPECT_EQ(Quiet.Fast.Burn, 0.0);
  EXPECT_EQ(Quiet.Slow.Total, 0u);
  EXPECT_EQ(Quiet.Slow.Burn, 0.0);
}

TEST(SloTrackerTest, SubSpacingTicksStillComputeAgainstTheLastEntry) {
  // Ticks closer together than the ring spacing reuse the existing
  // boundary entry instead of growing the ring; the burn is computed
  // fresh each time from the live histogram.
  SloTracker T(sloTestConfig());
  LogHistogram H;
  T.tick(1 * SloSec, H);
  H.record(500000);
  // 200ms later: below the 1s minimum spacing, but the miss shows up.
  SloTracker::Burn B = T.tick(1 * SloSec + 200000000ull, H);
  EXPECT_EQ(B.Fast.Total, 1u);
  EXPECT_EQ(B.Fast.Bad, 1u);
  EXPECT_NEAR(B.Fast.Burn, 10.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// OpsRegistry
//===----------------------------------------------------------------------===//

TEST(OpsRegistryTest, InstrumentsRoundTripAndReferencesAreStable) {
  OpsRegistry R;
  OpsCounter &C = R.counter("seminal_requests_total", "requests");
  C.inc();
  C.inc(4);
  EXPECT_EQ(C.value(), 5u);
  // Re-asking with the same (name, labels) returns the same instrument.
  EXPECT_EQ(&R.counter("seminal_requests_total"), &C);

  OpsGauge &G = R.gauge("seminal_sessions", "live sessions");
  G.set(7);
  G.add(-2);
  EXPECT_EQ(G.value(), 5);
  EXPECT_EQ(&R.gauge("seminal_sessions"), &G);

  LogHistogram &H = R.histogram("seminal_latency_us", "latency");
  H.record(10);
  EXPECT_EQ(&R.histogram("seminal_latency_us"), &H);
  EXPECT_EQ(H.count(), 1u);
}

TEST(OpsRegistryTest, LabelsSelectInstancesWithinAFamily) {
  OpsRegistry R;
  OpsCounter &S0 = R.counter("seminal_shard_requests_total", "per shard",
                             {{"shard", "0"}});
  OpsCounter &S1 = R.counter("seminal_shard_requests_total", "per shard",
                             {{"shard", "1"}});
  EXPECT_NE(&S0, &S1);
  S0.inc(2);
  S1.inc(3);
  EXPECT_EQ(R.counter("seminal_shard_requests_total", "", {{"shard", "0"}})
                .value(),
            2u);
  std::string Text = R.renderPrometheus();
  EXPECT_NE(Text.find("seminal_shard_requests_total{shard=\"0\"} 2"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("seminal_shard_requests_total{shard=\"1\"} 3"),
            std::string::npos)
      << Text;
}

TEST(OpsRegistryTest, KindMismatchReturnsDetachedInstrument) {
  OpsRegistry R;
  OpsCounter &C = R.counter("seminal_thing", "a counter");
  C.inc(9);
  // Asking for the same name as a gauge is a programming error; the
  // returned instrument must be safe to use but render nowhere.
  OpsGauge &G = R.gauge("seminal_thing");
  G.set(123456);
  std::string Text = R.renderPrometheus();
  EXPECT_NE(Text.find("seminal_thing 9"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("123456"), std::string::npos) << Text;
}

TEST(OpsRegistryTest, PrometheusExpositionIsWellFormed) {
  OpsRegistry R;
  R.counter("seminal_requests_total", "Requests accepted.").inc(3);
  R.gauge("seminal_queue_depth", "Queued requests.").set(2);
  LogHistogram &H =
      R.histogram("seminal_latency_us", "Latency.", {{"state", "cold"}});
  for (int I = 1; I <= 100; ++I)
    H.record(uint64_t(I));

  std::string Text = R.renderPrometheus();
  ASSERT_FALSE(Text.empty());
  EXPECT_EQ(Text.back(), '\n') << "exposition must end with a newline";

  std::istringstream Lines(Text);
  std::string Line;
  std::string LastTypedFamily;
  size_t Samples = 0;
  while (std::getline(Lines, Line)) {
    ASSERT_FALSE(Line.empty()) << "no blank lines in the exposition";
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0) {
      if (Line.rfind("# TYPE ", 0) == 0)
        LastTypedFamily = Line.substr(7, Line.find(' ', 7) - 7);
      continue;
    }
    ASSERT_NE(Line[0], '#') << "unknown comment form: " << Line;
    // <name>{labels}? <value>
    size_t NameEnd = Line.find_first_of("{ ");
    ASSERT_NE(NameEnd, std::string::npos) << Line;
    std::string Name = Line.substr(0, NameEnd);
    for (char Ch : Name)
      ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(Ch)) || Ch == '_' ||
                  Ch == ':')
          << "bad metric name char in: " << Line;
    ASSERT_FALSE(std::isdigit(static_cast<unsigned char>(Name[0]))) << Line;
    // Every sample belongs to the family most recently declared by a
    // TYPE line (allowing _sum/_count suffixes on summaries).
    EXPECT_EQ(Name.rfind(LastTypedFamily, 0), 0u)
        << Name << " appeared under TYPE " << LastTypedFamily;
    // The value parses as a number.
    size_t ValStart = Line.rfind(' ');
    ASSERT_NE(ValStart, std::string::npos) << Line;
    EXPECT_NO_THROW((void)std::stod(Line.substr(ValStart + 1))) << Line;
    ++Samples;
  }
  EXPECT_GE(Samples, 8u) << Text; // 1 counter + 1 gauge + 4 quantiles + 2

  // The histogram renders as a summary: quantiles + _sum/_count.
  EXPECT_NE(Text.find("# TYPE seminal_latency_us summary"), std::string::npos);
  EXPECT_NE(Text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(Text.find("state=\"cold\""), std::string::npos);
  EXPECT_NE(Text.find("seminal_latency_us_count{state=\"cold\"} 100"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("seminal_latency_us_sum{state=\"cold\"} 5050"),
            std::string::npos)
      << Text;
}

TEST(OpsRegistryTest, LabelValuesAreEscaped) {
  OpsRegistry R;
  R.counter("seminal_odd_total", "", {{"path", "a\\b\"c\nd"}}).inc();
  std::string Text = R.renderPrometheus();
  EXPECT_NE(Text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos) << Text;
}

TEST(OpsRegistryTest, NameSanitization) {
  EXPECT_EQ(promSanitizeName("seminal_ok_total"), "seminal_ok_total");
  EXPECT_EQ(promSanitizeName("has space-and.dots"), "has_space_and_dots");
  EXPECT_EQ(promSanitizeName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(promEscapeLabel("plain"), "plain");
  EXPECT_EQ(promEscapeLabel("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(OpsRegistryTest, JsonSnapshotParsesAndCarriesValues) {
  OpsRegistry R;
  R.counter("seminal_requests_total", "Requests.").inc(7);
  R.gauge("seminal_arena_bytes").set(4096);
  LogHistogram &H = R.histogram("seminal_latency_us", "", {{"state", "warm"}});
  for (int I = 0; I < 10; ++I)
    H.record(50);

  std::ostringstream OS;
  R.writeJson(OS);
  std::string Text = OS.str();
  EXPECT_EQ(Text.find('\n'), std::string::npos) << "compact single line";
  json::ParseResult P = json::parse(Text);
  ASSERT_TRUE(P.ok()) << Text;
  ASSERT_TRUE(P.Doc->isObject());

  const json::Value *Req = P.Doc->member("seminal_requests_total");
  ASSERT_TRUE(Req);
  EXPECT_EQ(Req->getString("type"), "counter");
  const json::Value *Vals = Req->member("values");
  ASSERT_TRUE(Vals && Vals->isArray());
  ASSERT_EQ(Vals->arrayValue().size(), 1u);
  EXPECT_EQ(Vals->arrayValue()[0].getInt("value", -1), 7);

  const json::Value *Lat = P.Doc->member("seminal_latency_us");
  ASSERT_TRUE(Lat);
  EXPECT_EQ(Lat->getString("type"), "histogram");
  const json::Value *LVals = Lat->member("values");
  ASSERT_TRUE(LVals && LVals->isArray());
  ASSERT_EQ(LVals->arrayValue().size(), 1u);
  const json::Value &Entry = LVals->arrayValue()[0];
  EXPECT_EQ(Entry.getInt("count", -1), 10);
  EXPECT_EQ(Entry.getInt("p50", -1), 50);
  const json::Value *Labels = Entry.member("labels");
  ASSERT_TRUE(Labels);
  EXPECT_EQ(Labels->getString("state"), "warm");
}

TEST(OpsRegistryTest, ProcessRegistryIsASingleton) {
  EXPECT_EQ(&OpsRegistry::process(), &OpsRegistry::process());
}

//===----------------------------------------------------------------------===//
// Logger
//===----------------------------------------------------------------------===//

TEST(LoggerTest, LevelGateDropsBelowThreshold) {
  std::ostringstream OS;
  Logger L(OS, LogLevel::Warn);
  EXPECT_FALSE(L.enabled(LogLevel::Debug));
  EXPECT_FALSE(L.enabled(LogLevel::Info));
  EXPECT_TRUE(L.enabled(LogLevel::Warn));
  EXPECT_TRUE(L.enabled(LogLevel::Error));
  L.info(LogEvent("dropped"));
  EXPECT_TRUE(OS.str().empty());
  L.warn(LogEvent("kept"));
  EXPECT_NE(OS.str().find("event=kept"), std::string::npos);

  std::ostringstream OS2;
  Logger Off(OS2, LogLevel::Off);
  EXPECT_FALSE(Off.enabled(LogLevel::Error));
  Off.error(LogEvent("nope"));
  EXPECT_TRUE(OS2.str().empty());
}

TEST(LoggerTest, LogfmtQuotesOnlyWhenNeeded) {
  std::ostringstream OS;
  Logger L(OS, LogLevel::Debug);
  L.info(LogEvent("check")
             .str("session", "alice")
             .str("path", "has space")
             .num("latency_us", int64_t(1234))
             .real("wall_ms", 1.5)
             .boolean("warm", true));
  std::string Line = OS.str();
  EXPECT_NE(Line.find("level=info"), std::string::npos) << Line;
  EXPECT_NE(Line.find("event=check"), std::string::npos) << Line;
  EXPECT_NE(Line.find("session=alice"), std::string::npos) << Line;
  EXPECT_NE(Line.find("path=\"has space\""), std::string::npos) << Line;
  EXPECT_NE(Line.find("latency_us=1234"), std::string::npos) << Line;
  EXPECT_NE(Line.find("warm=true"), std::string::npos) << Line;
  EXPECT_NE(Line.find("ts="), std::string::npos) << Line;
  EXPECT_EQ(Line.back(), '\n');
  EXPECT_EQ(std::count(Line.begin(), Line.end(), '\n'), 1);
}

TEST(LoggerTest, JsonModeEmitsParseableLines) {
  std::ostringstream OS;
  Logger L(OS, LogLevel::Debug, /*Json=*/true);
  L.warn(LogEvent("evict")
             .str("session", "bob \"quoted\"")
             .num("bytes", uint64_t(1u << 20))
             .boolean("forced", false));
  L.error(LogEvent("bind_failed").str("error", "address in use"));
  std::istringstream Lines(OS.str());
  std::string Line;
  int N = 0;
  while (std::getline(Lines, Line)) {
    json::ParseResult P = json::parse(Line);
    ASSERT_TRUE(P.ok()) << Line;
    ASSERT_TRUE(P.Doc->isObject());
    EXPECT_FALSE(P.Doc->getString("level").empty());
    EXPECT_FALSE(P.Doc->getString("event").empty());
    EXPECT_FALSE(P.Doc->getString("ts").empty());
    ++N;
  }
  EXPECT_EQ(N, 2);
  EXPECT_NE(OS.str().find("\"event\":\"evict\""), std::string::npos);
  EXPECT_NE(OS.str().find("\"forced\":false"), std::string::npos);
}

TEST(LoggerTest, ParseLogLevelRoundTrips) {
  LogLevel L = LogLevel::Warn;
  EXPECT_TRUE(parseLogLevel("debug", L));
  EXPECT_EQ(L, LogLevel::Debug);
  EXPECT_TRUE(parseLogLevel("info", L));
  EXPECT_EQ(L, LogLevel::Info);
  EXPECT_TRUE(parseLogLevel("off", L));
  EXPECT_EQ(L, LogLevel::Off);
  EXPECT_FALSE(parseLogLevel("verbose", L));
  EXPECT_EQ(L, LogLevel::Off) << "failed parse must not clobber";
  EXPECT_STREQ(logLevelName(LogLevel::Error), "error");
}

//===----------------------------------------------------------------------===//
// SlowTraceRing
//===----------------------------------------------------------------------===//

class SlowTraceRingTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = "/tmp/seminal_opstest_" + std::to_string(::getpid());
    cleanDir();
  }
  void TearDown() override { cleanDir(); }

  void cleanDir() {
    // Best-effort recursive-free cleanup: the ring only writes flat
    // files directly under Dir.
    std::string Cmd = "rm -rf '" + Dir + "'";
    (void)std::system(Cmd.c_str());
  }

  // TraceSink is non-copyable (it owns a mutex); fill one in place.
  static void fillSink(TraceSink &Sink) {
    TraceEvent E;
    E.Id = 1;
    E.Kind = SpanKind::Other;
    E.Name = "request";
    E.StartNs = 1000;
    E.DurNs = 5000000;
    Sink.record(E);
  }

  std::string Dir;
};

TEST_F(SlowTraceRingTest, CaptureWritesAValidChromeTrace) {
  SlowTraceRing Ring(Dir, 4);
  TraceSink Sink;
  fillSink(Sink);
  std::string Path = Ring.capture("42", Sink);
  ASSERT_FALSE(Path.empty());
  EXPECT_NE(Path.find("slow-000000-42.trace.json"), std::string::npos) << Path;
  EXPECT_EQ(Ring.size(), 1u);
  EXPECT_EQ(Ring.captured(), 1u);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  json::ParseResult P = json::parse(Buf.str());
  ASSERT_TRUE(P.ok()) << Buf.str();
  const json::Value *Events = P.Doc->member("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  EXPECT_FALSE(Events->arrayValue().empty());
}

TEST_F(SlowTraceRingTest, RingEvictsOldestBeyondCapacity) {
  SlowTraceRing Ring(Dir, 2);
  TraceSink Sink;
  fillSink(Sink);
  std::string P1 = Ring.capture("1", Sink);
  std::string P2 = Ring.capture("2", Sink);
  std::string P3 = Ring.capture("3", Sink);
  ASSERT_FALSE(P3.empty());
  EXPECT_EQ(Ring.size(), 2u);
  EXPECT_EQ(Ring.captured(), 3u);
  struct stat St;
  EXPECT_NE(::stat(P1.c_str(), &St), 0) << "oldest file must be evicted";
  EXPECT_EQ(::stat(P2.c_str(), &St), 0);
  EXPECT_EQ(::stat(P3.c_str(), &St), 0);
}

TEST_F(SlowTraceRingTest, RequestIdsAreSanitizedForTheFilesystem) {
  EXPECT_EQ(sanitizeRequestId("42"), "42");
  EXPECT_EQ(sanitizeRequestId("\"req-7.a\""), "req-7.a");
  EXPECT_EQ(sanitizeRequestId("a/b c"), "a_b_c");
  EXPECT_EQ(sanitizeRequestId(""), "req");
  EXPECT_EQ(sanitizeRequestId("\"//\""), "req");
  EXPECT_LE(sanitizeRequestId(std::string(200, 'x')).size(), 48u);

  SlowTraceRing Ring(Dir, 2);
  TraceSink Sink;
  fillSink(Sink);
  // Slashes in a hostile id become underscores: the capture cannot
  // escape the trace directory.
  std::string Path = Ring.capture("\"../../etc/passwd\"", Sink);
  ASSERT_FALSE(Path.empty());
  ASSERT_EQ(Path.rfind(Dir + "/slow-", 0), 0u) << Path;
  EXPECT_EQ(Path.find('/', Dir.size() + 1), std::string::npos) << Path;
}

} // namespace
