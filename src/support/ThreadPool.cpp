//===- ThreadPool.cpp - Minimal fixed-size worker pool ---------------------==//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace seminal;
using sync::MutexLock;

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Queues.resize(Threads);
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this, I] { workerMain(I); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock Lock(Mutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::post(size_t Shard, std::function<void()> Task) {
  {
    MutexLock Lock(Mutex);
    Queues[Shard % Queues.size()].push_back(std::move(Task));
    ++PostedPending;
  }
  // All workers share one condition variable; waking them all is cheap at
  // request-queue rates and keeps the wait predicate simple.
  WorkReady.notify_all();
}

void ThreadPool::drainPosted() {
  MutexLock Lock(Mutex);
  while (PostedPending != 0)
    WorkDone.wait(Mutex);
}

void ThreadPool::workerMain(unsigned WorkerIndex) {
  MutexLock Lock(Mutex);
  for (;;) {
    while (!(ShuttingDown || !Queues[WorkerIndex].empty()))
      WorkReady.wait(Mutex);
    // On shutdown the queue is still drained -- a posted task is a
    // promise to the poster.
    while (!Queues[WorkerIndex].empty()) {
      std::function<void()> Task = std::move(Queues[WorkerIndex].front());
      Queues[WorkerIndex].pop_front();
      Lock.unlock();
      Task();
      Lock.lock();
      if (--PostedPending == 0)
        WorkDone.notify_all();
    }
    if (ShuttingDown)
      return;
  }
}
