//===- SupportTest.cpp - Tests for the support library --------------------==//

#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/SourceLoc.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

using namespace seminal;

TEST(SourceLocTest, DefaultIsInvalid) {
  SourceLoc Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLocTest, StrRendersLineAndColumn) {
  SourceLoc Loc(3, 7, 42);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "line 3, column 7");
}

TEST(SourceSpanTest, ContainsIsHalfOpen) {
  SourceSpan Span(SourceLoc(1, 1, 10), 20);
  EXPECT_TRUE(Span.contains(10));
  EXPECT_TRUE(Span.contains(19));
  EXPECT_FALSE(Span.contains(20));
  EXPECT_FALSE(Span.contains(9));
}

TEST(SourceSpanTest, OverlapsAndEncloses) {
  SourceSpan A(SourceLoc(1, 1, 10), 20);
  SourceSpan B(SourceLoc(1, 5, 15), 25);
  SourceSpan C(SourceLoc(1, 9, 20), 30);
  SourceSpan Inner(SourceLoc(1, 3, 12), 18);
  EXPECT_TRUE(A.overlaps(B));
  EXPECT_TRUE(B.overlaps(A));
  EXPECT_FALSE(A.overlaps(C));
  EXPECT_TRUE(A.encloses(Inner));
  EXPECT_FALSE(Inner.encloses(A));
}

TEST(SourceSpanTest, MergeCoversBoth) {
  SourceSpan A(SourceLoc(1, 1, 10), 20);
  SourceSpan B(SourceLoc(2, 1, 30), 40);
  SourceSpan M = SourceSpan::merge(A, B);
  EXPECT_EQ(M.Begin.Offset, 10u);
  EXPECT_EQ(M.EndOffset, 40u);
  // Merging with an invalid span returns the valid one.
  SourceSpan Invalid;
  EXPECT_EQ(SourceSpan::merge(A, Invalid).Begin.Offset, 10u);
  EXPECT_EQ(SourceSpan::merge(Invalid, B).EndOffset, 40u);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.range(0, 1000), B.range(0, 1000));
}

TEST(RngTest, RangeIsInclusive) {
  Rng R(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.range(0, 3);
    EXPECT_GE(V, 0);
    EXPECT_LE(V, 3);
    SawLo |= V == 0;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, GeometricIsAtLeastOne) {
  Rng R(11);
  for (int I = 0; I < 200; ++I)
    EXPECT_GE(R.geometric(0.5), 1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng A(42);
  Rng Child = A.fork();
  // The fork must not simply mirror the parent.
  int Same = 0;
  for (int I = 0; I < 50; ++I)
    if (A.range(0, 1000000) == Child.range(0, 1000000))
      ++Same;
  EXPECT_LT(Same, 5);
}

TEST(SamplesTest, PercentilesOnKnownData) {
  Samples S;
  for (int I = 1; I <= 100; ++I)
    S.add(double(I));
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 100.0);
  EXPECT_NEAR(S.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(S.mean(), 50.5, 1e-9);
}

TEST(SamplesTest, FractionBelow) {
  Samples S;
  for (int I = 1; I <= 10; ++I)
    S.add(double(I));
  EXPECT_DOUBLE_EQ(S.fractionBelow(5.0), 0.5);
  EXPECT_DOUBLE_EQ(S.fractionBelow(0.0), 0.0);
  EXPECT_DOUBLE_EQ(S.fractionBelow(100.0), 1.0);
}

TEST(SamplesTest, CdfIsMonotone) {
  Samples S;
  Rng R(3);
  for (int I = 0; I < 500; ++I)
    S.add(R.unit());
  auto Cdf = S.cdf(20);
  ASSERT_EQ(Cdf.size(), 20u);
  for (size_t I = 1; I < Cdf.size(); ++I) {
    EXPECT_LE(Cdf[I - 1].first, Cdf[I].first);
    EXPECT_LE(Cdf[I - 1].second, Cdf[I].second);
  }
}

TEST(HistogramTest, CountsAndTotal) {
  Histogram H;
  H.add(1);
  H.add(1);
  H.add(2);
  H.add(5, 10);
  EXPECT_EQ(H.count(1), 2u);
  EXPECT_EQ(H.count(2), 1u);
  EXPECT_EQ(H.count(5), 10u);
  EXPECT_EQ(H.count(99), 0u);
  EXPECT_EQ(H.total(), 13u);
}

TEST(HistogramTest, RenderIncludesEveryBucket) {
  Histogram H;
  H.add(1, 100);
  H.add(7, 3);
  std::string Out = H.renderLogScale("size", "count");
  EXPECT_NE(Out.find("1"), std::string::npos);
  EXPECT_NE(Out.find("7"), std::string::npos);
  EXPECT_NE(Out.find("100"), std::string::npos);
}

TEST(StrUtilTest, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
}

TEST(StrUtilTest, IndentPrefixesNonEmptyLines) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
}

TEST(StrUtilTest, EscapeStringLiteral) {
  EXPECT_EQ(escapeStringLiteral("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(StrUtilTest, Ellipsize) {
  EXPECT_EQ(ellipsize("hello", 10), "hello");
  EXPECT_EQ(ellipsize("hello world", 8), "hello...");
}

namespace {

AccelCounters makeCounters(uint64_t Base) {
  AccelCounters C;
  C.CacheHits = Base + 1;
  C.CacheMisses = Base + 2;
  C.FullInferences = Base + 3;
  C.IncrementalInferences = Base + 4;
  C.DeclInferencesSaved = Base + 5;
  C.CheckpointSeeds = Base + 6;
  C.CheckpointFallbacks = Base + 7;
  C.SessionPrefixHits = Base + 8;
  C.SessionSeedAdoptions = Base + 9;
  C.TypesAllocated = Base + 10;
  return C;
}

} // namespace

TEST(AccelCountersTest, PlusEqualsSumsEveryField) {
  AccelCounters A = makeCounters(0);
  AccelCounters B = makeCounters(100);
  A += B;
  EXPECT_EQ(A.CacheHits, 102u);
  EXPECT_EQ(A.CacheMisses, 104u);
  EXPECT_EQ(A.FullInferences, 106u);
  EXPECT_EQ(A.IncrementalInferences, 108u);
  EXPECT_EQ(A.DeclInferencesSaved, 110u);
  EXPECT_EQ(A.CheckpointSeeds, 112u);
  EXPECT_EQ(A.CheckpointFallbacks, 114u);
  EXPECT_EQ(A.SessionPrefixHits, 116u);
  EXPECT_EQ(A.SessionSeedAdoptions, 118u);
  EXPECT_EQ(A.TypesAllocated, 120u);
  EXPECT_EQ(A.inferenceRuns(), 106u + 108u);
  // B is untouched.
  EXPECT_EQ(B.CacheHits, 101u);
}

TEST(AccelCountersTest, PlusEqualsReturnsSelfAndChains) {
  AccelCounters A = makeCounters(0);
  AccelCounters B = makeCounters(10);
  (A += B) += B;
  EXPECT_EQ(A.CacheHits, 1u + 11u + 11u);
  EXPECT_EQ(A.TypesAllocated, 10u + 20u + 20u);
}

TEST(AccelCountersTest, ResetClearsEveryField) {
  AccelCounters A = makeCounters(1000);
  A.reset();
  EXPECT_EQ(A.CacheHits, 0u);
  EXPECT_EQ(A.CacheMisses, 0u);
  EXPECT_EQ(A.FullInferences, 0u);
  EXPECT_EQ(A.IncrementalInferences, 0u);
  EXPECT_EQ(A.DeclInferencesSaved, 0u);
  EXPECT_EQ(A.CheckpointSeeds, 0u);
  EXPECT_EQ(A.CheckpointFallbacks, 0u);
  EXPECT_EQ(A.SessionPrefixHits, 0u);
  EXPECT_EQ(A.SessionSeedAdoptions, 0u);
  EXPECT_EQ(A.TypesAllocated, 0u);
  EXPECT_EQ(A.inferenceRuns(), 0u);
  // Reusable after reset.
  A += makeCounters(0);
  EXPECT_EQ(A.CacheHits, 1u);
}

TEST(MetricsTest, SummaryOfKnownSeries) {
  Metrics M;
  for (int I = 1; I <= 100; ++I)
    M.observe("test.series", double(I));
  MetricSummary S = M.summary("test.series");
  EXPECT_EQ(S.Count, 100u);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 100.0);
  EXPECT_NEAR(S.P50, 50.5, 1e-9);
  EXPECT_NEAR(S.Mean, 50.5, 1e-9);
  EXPECT_GT(S.P95, S.P50);
}

TEST(MetricsTest, NamesAreSortedAndEmptyWorks) {
  Metrics M;
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.summary("missing").Count, 0u);
  M.observe("b.second", 2.0);
  M.observe("a.first", 1.0);
  auto Names = M.names();
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "a.first");
  EXPECT_EQ(Names[1], "b.second");
  EXPECT_FALSE(M.empty());
  M.clear();
  EXPECT_TRUE(M.empty());
}

TEST(MetricsTest, WriteJsonIsWellFormed) {
  Metrics M;
  M.observe("x.y", 1.0);
  M.observe("x.y", 3.0);
  std::ostringstream OS;
  M.writeJson(OS);
  std::string J = OS.str();
  EXPECT_NE(J.find("\"x.y\""), std::string::npos);
  EXPECT_NE(J.find("\"count\""), std::string::npos);
  EXPECT_EQ(J.front(), '{');
  EXPECT_EQ(J.back(), '}');
}

//===----------------------------------------------------------------------===//
// ThreadPool (the only concurrency primitive in the tree; this suite is
// what the CI TSan job points at)
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, EveryItemRunsExactlyOnce) {
  ThreadPool Pool(4);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  for (size_t I = 0; I < N; ++I)
    Pool.post(I, [&Hits, I] { Hits[I].fetch_add(1); });
  Pool.drainPosted();
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "item " << I;
}

TEST(ThreadPoolTest, WorkerIndexStaysInRange) {
  // Shards wrap onto the workers: shard S runs on worker S % numThreads(),
  // so any shard number is valid and S and S + numThreads() share a
  // thread (the server hashes session names to arbitrary shards).
  ThreadPool Pool(3);
  ASSERT_EQ(Pool.numThreads(), 3u);
  constexpr size_t Shards = 30;
  std::vector<std::thread::id> RanOn(Shards);
  for (size_t S = 0; S < Shards; ++S)
    Pool.post(S, [&RanOn, S] { RanOn[S] = std::this_thread::get_id(); });
  Pool.drainPosted();
  EXPECT_EQ(std::set<std::thread::id>(RanOn.begin(), RanOn.end()).size(), 3u);
  for (size_t S = 3; S < Shards; ++S)
    EXPECT_EQ(RanOn[S], RanOn[S % 3]) << "shard " << S;
}

TEST(ThreadPoolTest, PerIndexSlotsNeedNoLocking) {
  // Disjoint result slots written by tasks on every shard, read after
  // drainPosted. TSan validates that the drain is the fence that makes
  // the unsynchronized writes safe.
  ThreadPool Pool(4);
  constexpr size_t N = 2000;
  std::vector<size_t> Results(N, 0);
  for (size_t I = 0; I < N; ++I)
    Pool.post(I, [&Results, I] { Results[I] = I * I; });
  Pool.drainPosted();
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Results[I], I * I);
}

TEST(ThreadPoolTest, ReusableAcrossCallsAndZeroItemsIsFine) {
  ThreadPool Pool(2);
  std::atomic<size_t> Total{0};
  for (size_t Round = 0; Round < 50; ++Round) {
    // Every tenth round posts nothing before draining.
    size_t Items = Round % 10 == 0 ? 0 : 10;
    for (size_t I = 0; I < Items; ++I)
      Pool.post(I, [&Total] { Total.fetch_add(1); });
    Pool.drainPosted();
  }
  EXPECT_EQ(Total.load(), 450u);
}

TEST(ThreadPoolTest, PostedTasksRunFifoPerShard) {
  // The server's sharding contract: tasks posted to one shard run in
  // submission order on a single worker, so a shard-pinned session
  // never sees two of its requests concurrently.
  ThreadPool Pool(4);
  constexpr size_t Shards = 4, PerShard = 200;
  std::vector<std::vector<size_t>> Order(Shards);
  for (size_t I = 0; I < PerShard; ++I)
    for (size_t Shard = 0; Shard < Shards; ++Shard)
      Pool.post(Shard, [&Order, Shard, I] { Order[Shard].push_back(I); });
  Pool.drainPosted();
  for (size_t Shard = 0; Shard < Shards; ++Shard) {
    ASSERT_EQ(Order[Shard].size(), PerShard) << "shard " << Shard;
    for (size_t I = 0; I < PerShard; ++I)
      EXPECT_EQ(Order[Shard][I], I) << "shard " << Shard;
  }
}

TEST(ThreadPoolTest, DestructionRunsEveryQueuedTask) {
  // The shutdown path without drainPosted: every worker is blocked on
  // its shard's first task while the rest queue behind it, then the
  // block is released and the pool destroyed at once. The destructor
  // must wake each worker (one idles on its own condition variable as
  // soon as its queue empties) and each must drain its queue, in order,
  // before it exits -- a posted task is a promise to the poster.
  constexpr size_t Shards = 4, PerShard = 100;
  for (int Round = 0; Round < 20; ++Round) {
    std::vector<std::vector<size_t>> Order(Shards);
    {
      ThreadPool Pool{unsigned(Shards)};
      std::promise<void> Release;
      std::shared_future<void> Gate = Release.get_future().share();
      for (size_t Shard = 0; Shard < Shards; ++Shard)
        Pool.post(Shard, [Gate] { Gate.wait(); });
      for (size_t I = 0; I < PerShard; ++I)
        for (size_t Shard = 0; Shard < Shards; ++Shard)
          Pool.post(Shard, [&Order, Shard, I] { Order[Shard].push_back(I); });
      Release.set_value();
    }
    for (size_t Shard = 0; Shard < Shards; ++Shard) {
      ASSERT_EQ(Order[Shard].size(), PerShard)
          << "round " << Round << ", shard " << Shard;
      for (size_t I = 0; I < PerShard; ++I)
        ASSERT_EQ(Order[Shard][I], I)
            << "round " << Round << ", shard " << Shard;
    }
  }
}

TEST(ThreadPoolTest, DrainPostedWithNothingPostedReturns) {
  ThreadPool Pool(2);
  Pool.drainPosted();
  std::atomic<int> Ran{0};
  Pool.post(0, [&] { Ran.fetch_add(1); });
  Pool.drainPosted();
  Pool.drainPosted();
  EXPECT_EQ(Ran.load(), 1);
}
