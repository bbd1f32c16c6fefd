//===- ThreadPool.cpp - Minimal fixed-size worker pool ---------------------==//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace seminal;
using sync::MutexLock;

namespace {
unsigned workerCount(unsigned Threads) {
  return Threads ? Threads : std::max(1u, std::thread::hardware_concurrency());
}
} // namespace

ThreadPool::ThreadPool(unsigned Threads) : WorkReady(workerCount(Threads)) {
  Threads = unsigned(WorkReady.size());
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
  for (sync::CondVar &Ready : WorkReady)
    Ready.notify_one();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::post(size_t Shard, std::function<void()> Task) {
  size_t Owner = Shard % WorkReady.size();
  {
    MutexLock Lock(Mutex);
    Queues[Owner].push_back(std::move(Task));
    ++PostedPending;
  }
  // Only the owner can run the task, so only the owner is woken.
  WorkReady[Owner].notify_one();
}

void ThreadPool::drainPosted() {
  MutexLock Lock(Mutex);
  while (PostedPending != 0)
    WorkDone.wait(Mutex);
}

void ThreadPool::workerMain(unsigned WorkerIndex) {
  MutexLock Lock(Mutex);
  std::deque<std::function<void()>> &Queue = Queues[WorkerIndex];
  for (;;) {
    while (!(ShuttingDown || !Queue.empty()))
      WorkReady[WorkerIndex].wait(Mutex);
    // On shutdown the queue is still drained -- a posted task is a
    // promise to the poster.
    while (!Queue.empty()) {
      std::function<void()> Task = std::move(Queue.front());
      Queue.pop_front();
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
