//===- SyncTest.cpp - Annotated sync layer and lock-rank checker tests ------==//
//
// Pins the concurrency contract's runtime half (DESIGN.md section 15):
// the lock-rank checker in support/Sync.h must abort -- loudly, naming
// both locks -- on any acquisition that is not strictly rank-increasing
// (a *potential* deadlock cycle), stay silent on correct nesting, treat
// shared->exclusive upgrades and same-rank pairs as the deadlocks they
// are, and keep its per-thread bookkeeping consistent across a CondVar
// wait's release/re-acquire. The compile-time half (-Wthread-safety) is
// proven by the thread-safety CI job, not here.
//
//===----------------------------------------------------------------------===//

#include "support/Sync.h"

#include <gtest/gtest.h>

#include <thread>

using namespace seminal;
using namespace seminal::sync;

namespace {

/// Restores the checker toggle whatever the test body does; death tests
/// fork, so the parent's state must be explicit, not inherited luck.
/// "threadsafe" style (fork+exec) keeps the CondVar producer threads in
/// this binary from corrupting the forked child.
class SyncTest : public ::testing::Test {
protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Prev = setRankChecksEnabled(true);
  }
  void TearDown() override { setRankChecksEnabled(Prev); }
  bool Prev = true;
};

/// The death tests assert the rank checker's aborts. A build without the
/// checker (SEMINAL_RANK_CHECKS=OFF, the Release default) compiles those
/// out, so there the tests would fail or block forever; they skip.
class SyncDeathTest : public SyncTest {
protected:
  void SetUp() override {
    SyncTest::SetUp();
#if SEMINAL_SYNC_RANK_CHECKS == 0
    GTEST_SKIP() << "lock-rank checker compiled out (SEMINAL_RANK_CHECKS=OFF)";
#endif
  }
};

TEST_F(SyncTest, CorrectNestingIsSilent) {
  // The canonical happy path: outermost server lock, then pool, then
  // log -- ranks 20 < 40 < 90, strictly increasing.
  Mutex Engine(LockRank::ServerEngine, "test.engine");
  Mutex Pool(LockRank::ThreadPool, "test.pool");
  Mutex Log(LockRank::Log, "test.log");
  MutexLock L1(Engine);
  MutexLock L2(Pool);
  MutexLock L3(Log);
  SUCCEED();
}

TEST_F(SyncTest, SequentialReacquisitionIsSilent) {
  // Rank order constrains *nesting*, not lifetime: dropping a high lock
  // and then taking a low one is fine.
  Mutex High(LockRank::Log, "test.high");
  Mutex Low(LockRank::ServerEngine, "test.low");
  {
    MutexLock L(High);
  }
  MutexLock L(Low);
  SUCCEED();
}

TEST_F(SyncTest, RelockableGuardKeepsBookkeeping) {
  // The drop-the-lock-around-work pattern (ThreadPool::workerMain):
  // unlock() empties the held set, so work may take *any* rank; lock()
  // re-enters it.
  Mutex Pool(LockRank::ThreadPool, "test.pool");
  Mutex Engine(LockRank::ServerEngine, "test.engine");
  MutexLock L(Pool);
  L.unlock();
  {
    // Lower rank than Pool: legal only because Pool is not held here.
    MutexLock Work(Engine);
  }
  L.lock();
}

TEST_F(SyncDeathTest, InvertedAcquisitionAborts) {
  // The deliberately inverted pair the ISSUE demands: holding rank 90,
  // acquiring rank 60 is a potential deadlock cycle even though no
  // second thread exists to realize it.
  Mutex Log(LockRank::Log, "test.log");
  Mutex Metrics(LockRank::Metrics, "test.metrics");
  MutexLock L(Log);
  EXPECT_DEATH({ MutexLock Bad(Metrics); }, "rank not strictly increasing");
}

TEST_F(SyncDeathTest, ReportNamesBothLocks) {
  Mutex Outer(LockRank::Trace, "test.outer.trace");
  Mutex Inner(LockRank::Telemetry, "test.inner.telemetry");
  MutexLock L(Outer);
  // The report must carry both names so the abort is actionable.
  EXPECT_DEATH({ MutexLock Bad(Inner); },
               "test\\.inner\\.telemetry.*test\\.outer\\.trace");
}

TEST_F(SyncDeathTest, SameRankPairAborts) {
  // Two locks sharing a rank may never nest: "strictly increasing"
  // leaves no tie-break, so neither order is legal.
  Mutex A(LockRank::Leaf, "test.leaf.a");
  Mutex B(LockRank::Leaf, "test.leaf.b");
  MutexLock L(A);
  EXPECT_DEATH({ MutexLock Bad(B); }, "rank not strictly increasing");
}

TEST_F(SyncDeathTest, RecursiveAcquisitionAborts) {
  Mutex M(LockRank::Leaf, "test.recursive");
  MutexLock L(M);
  EXPECT_DEATH(M.lock(), "recursive acquisition");
}

TEST_F(SyncDeathTest, SharedUpgradeAborts) {
  // Reader-held, then exclusive on the same mutex: the classic upgrade
  // self-deadlock (blocks forever waiting for its own reader).
  SharedMutex M(LockRank::Metrics, "test.shared");
  ReaderLock R(M);
  EXPECT_DEATH(M.lock(), "recursive acquisition");
}

TEST_F(SyncDeathTest, SharedReacquisitionAborts) {
  // Even shared-after-shared on one mutex is flagged: with a writer
  // queued between the two reader acquisitions it deadlocks.
  SharedMutex M(LockRank::Metrics, "test.shared");
  ReaderLock R(M);
  EXPECT_DEATH(M.lock_shared(), "recursive acquisition");
}

TEST_F(SyncTest, SharedThenHigherExclusiveIsSilent) {
  // Reader/writer rules only forbid *same-mutex* upgrades; a reader may
  // still take higher-ranked locks.
  SharedMutex Map(LockRank::Metrics, "test.map");
  Mutex Log(LockRank::Log, "test.log");
  ReaderLock R(Map);
  MutexLock L(Log);
  SUCCEED();
}

TEST_F(SyncDeathTest, WriterInversionAborts) {
  // Exclusive acquisitions of a SharedMutex obey the same rank rule.
  SharedMutex High(LockRank::Log, "test.shared.high");
  SharedMutex Low(LockRank::Metrics, "test.shared.low");
  WriterLock W(High);
  EXPECT_DEATH({ WriterLock Bad(Low); }, "rank not strictly increasing");
}

TEST_F(SyncTest, CondVarWaitReacquires) {
  // wait() releases and re-acquires through the wrapper, so after it
  // returns the mutex is held again -- both for real (the guarded flag
  // reads race-free) and in the checker's bookkeeping (the follow-up
  // higher-rank acquisition below is legal, a second wait-mutex
  // acquisition would abort).
  Mutex M(LockRank::Metrics, "test.cv");
  CondVar CV;
  bool Ready = false;
  std::thread Producer([&] {
    MutexLock L(M);
    Ready = true;
    CV.notify_one();
  });
  {
    MutexLock L(M);
    while (!Ready)
      CV.wait(M);
    EXPECT_TRUE(Ready);
    // Held-set still records M: acquiring above it is legal...
    Mutex Log(LockRank::Log, "test.cv.log");
    MutexLock L2(Log);
  }
  Producer.join();
}

TEST_F(SyncDeathTest, WaitMutexStillHeldAfterWait) {
  Mutex M(LockRank::Metrics, "test.cv");
  CondVar CV;
  bool Ready = false;
  std::thread Producer([&] {
    MutexLock L(M);
    Ready = true;
    CV.notify_one();
  });
  MutexLock L(M);
  while (!Ready)
    CV.wait(M);
  Producer.join();
  // ...and re-acquiring the wait mutex itself is still the recursive
  // acquisition it always was: the wait left it held, not dropped.
  EXPECT_DEATH(M.lock(), "recursive acquisition");
}

TEST_F(SyncTest, RuntimeToggleDisablesChecking) {
  // The daemon may run with checks off (Release compiles them out
  // entirely); popHeld must tolerate locks acquired while disabled.
  Mutex High(LockRank::Log, "test.high");
  Mutex Low(LockRank::ServerEngine, "test.low");
  setRankChecksEnabled(false);
  High.lock();
  Low.lock(); // Inverted, but checking is off: no abort.
  setRankChecksEnabled(true);
  Low.unlock(); // Not in the (empty) held stack: tolerated no-ops.
  High.unlock();
  SUCCEED();
}

TEST_F(SyncTest, RanksAreIndependentPerThread) {
  // The held stack is thread-local: two threads may hold the same pair
  // in opposite *lifetimes* as long as neither nests them.
  Mutex A(LockRank::Metrics, "test.a");
  Mutex B(LockRank::Log, "test.b");
  std::thread T([&] {
    MutexLock L(B);
  });
  {
    MutexLock L(A);
  }
  T.join();
  SUCCEED();
}

} // namespace
