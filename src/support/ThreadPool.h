//===- ThreadPool.h - Minimal fixed-size worker pool ------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool with per-worker FIFO task queues:
/// post(Shard, Task) runs Task on worker Shard % numThreads(). The search
/// daemon (src/server) pins every session to one shard, so all requests
/// touching a session's warm caches execute on the same worker in
/// submission order: session state needs no locks, and concurrent
/// clients on different shards never contend on each other's caches.
/// Posted tasks are FIFO per shard; ordering across shards is
/// unspecified (by design -- shards are independent).
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SUPPORT_THREADPOOL_H
#define SEMINAL_SUPPORT_THREADPOOL_H

#include "support/Sync.h"

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

namespace seminal {

/// Fixed-size pool of worker threads, created once and reused for every
/// posted task.
class ThreadPool {
public:
  /// \p Threads workers; 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned Threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return unsigned(Workers.size()); }

  /// Enqueues \p Task on the FIFO queue of worker Shard % numThreads()
  /// and returns immediately. Tasks posted to the same shard run on the
  /// same worker thread in submission order; tasks on different shards
  /// run concurrently. Thread-safe (any thread may post, including a
  /// worker posting to another shard -- posting to its *own* shard from
  /// inside a task is allowed too, the task just runs later).
  void post(size_t Shard, std::function<void()> Task);

  /// Blocks until every task posted so far has finished executing.
  /// Tasks posted concurrently with the drain may or may not be waited
  /// for. Must not be called from inside a posted task (it would wait
  /// for itself).
  void drainPosted();

private:
  void workerMain(unsigned WorkerIndex);

  /// Immutable after construction (joined in the destructor only).
  std::vector<std::thread> Workers;

  sync::Mutex Mutex{sync::LockRank::ThreadPool, "threadpool"};
  sync::CondVar WorkReady;
  sync::CondVar WorkDone;
  bool ShuttingDown SEMINAL_GUARDED_BY(Mutex) = false;

  /// One FIFO per worker. PostedPending counts tasks accepted but not
  /// yet finished (queued + running), so drainPosted waits for
  /// completion, not merely dequeueing.
  std::vector<std::deque<std::function<void()>>> Queues
      SEMINAL_GUARDED_BY(Mutex);
  size_t PostedPending SEMINAL_GUARDED_BY(Mutex) = 0;
};

} // namespace seminal

#endif // SEMINAL_SUPPORT_THREADPOOL_H
