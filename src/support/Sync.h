//===- Sync.h - Annotated synchronization primitives ------------*- C++ -*-==//
//
// Part of the SEMINAL reproduction. See README.md for license information.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree's one home for synchronization primitives (DESIGN.md section
/// 15). Every mutex and condition variable in src/ is a seminal::sync
/// type; raw std::mutex/std::condition_variable outside this header is a
/// lint error (scripts/check_invariants.py). The wrappers buy two
/// machine-checked guarantees on top of bare std types:
///
///   * **Compile-time lock discipline.** Mutex/SharedMutex are Clang
///     Thread Safety Analysis capabilities; members annotated
///     SEMINAL_GUARDED_BY(M) can only be touched while M is held, and
///     functions can publish REQUIRES/ACQUIRE/RELEASE/EXCLUDES
///     contracts. A clang build with -Wthread-safety -Wthread-safety-beta
///     (CMake: -DSEMINAL_THREAD_SAFETY=ON) proves the discipline over
///     the whole tree; under gcc the attributes compile away and the
///     wrappers are exactly as cheap as the std types they hold.
///
///   * **Runtime deadlock prevention by lock ranking.** Every Mutex
///     carries a LockRank; in checked builds (SEMINAL_SYNC_RANK_CHECKS,
///     on by default outside Release) each thread tracks its held-lock
///     stack and aborts the moment any acquisition is not
///     strictly-rank-increasing -- i.e. on any *potential* deadlock
///     cycle, not just an interleaving that actually deadlocked the way
///     TSan requires. The report names the offending pair and the full
///     held set (see sync_detail::checkRank).
///
/// Escape-hatch policy: SEMINAL_NO_THREAD_SAFETY_ANALYSIS is reserved
/// for functions whose locking is deliberately conditional or external
/// (none in the tree today); every use must cite the invariant it hides
/// in a comment and be listed in DESIGN.md section 15. Prefer
/// restructuring (explicit wait loops, REQUIRES'd helpers) first.
///
//===----------------------------------------------------------------------===//

#ifndef SEMINAL_SUPPORT_SYNC_H
#define SEMINAL_SUPPORT_SYNC_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

//===----------------------------------------------------------------------===//
// Clang Thread Safety Analysis attribute set
//===----------------------------------------------------------------------===//
// Standard TSA macro spellings (one name per clang attribute). Under any
// compiler without the attributes they expand to nothing, so headers
// using them stay portable.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SEMINAL_TSA(x) __attribute__((x))
#endif
#endif
#ifndef SEMINAL_TSA
#define SEMINAL_TSA(x)
#endif

/// Marks a class as a TSA capability ("mutex", "shared_mutex", "role").
#define SEMINAL_CAPABILITY(x) SEMINAL_TSA(capability(x))
/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define SEMINAL_SCOPED_CAPABILITY SEMINAL_TSA(scoped_lockable)
/// Member may only be read or written while holding the capability.
#define SEMINAL_GUARDED_BY(x) SEMINAL_TSA(guarded_by(x))
/// Pointee (not the pointer) is protected by the capability.
#define SEMINAL_PT_GUARDED_BY(x) SEMINAL_TSA(pt_guarded_by(x))
/// Caller must hold the capability (exclusively) on entry and exit.
#define SEMINAL_REQUIRES(...) SEMINAL_TSA(requires_capability(__VA_ARGS__))
/// Caller must hold the capability at least shared.
#define SEMINAL_REQUIRES_SHARED(...)                                         \
  SEMINAL_TSA(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability; caller must not already hold it.
#define SEMINAL_ACQUIRE(...) SEMINAL_TSA(acquire_capability(__VA_ARGS__))
#define SEMINAL_ACQUIRE_SHARED(...)                                          \
  SEMINAL_TSA(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability; caller must hold it on entry.
#define SEMINAL_RELEASE(...) SEMINAL_TSA(release_capability(__VA_ARGS__))
#define SEMINAL_RELEASE_SHARED(...)                                          \
  SEMINAL_TSA(release_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (anti-aliasing / deadlock guard).
#define SEMINAL_EXCLUDES(...) SEMINAL_TSA(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define SEMINAL_RETURN_CAPABILITY(x) SEMINAL_TSA(lock_returned(x))
/// Documented escape hatch -- see the policy in the file comment.
#define SEMINAL_NO_THREAD_SAFETY_ANALYSIS                                    \
  SEMINAL_TSA(no_thread_safety_analysis)

//===----------------------------------------------------------------------===//
// Lock-rank runtime checker
//===----------------------------------------------------------------------===//
// Compiled in unless the build defines SEMINAL_SYNC_RANK_CHECKS=0
// (CMake does for Release builds: sync types then compile to bare std
// types plus two inert const members). When compiled in, checking is on
// by default and can be toggled at runtime (tests exercising the
// checker's own behavior use the setter).

#ifndef SEMINAL_SYNC_RANK_CHECKS
#define SEMINAL_SYNC_RANK_CHECKS 1
#endif

namespace seminal {
namespace sync {

/// The global acquisition order (DESIGN.md section 15 holds the full
/// table with every mutex instance in the tree). A thread may only
/// acquire a mutex whose rank is *strictly greater* than every rank it
/// already holds; two mutexes that must nest therefore need distinct
/// ranks, and two mutexes sharing a rank may never be held together.
/// Low rank = outermost. Gaps are deliberate room for future layers.
enum class LockRank : uint16_t {
  ServerConn = 10,    ///< UnixSocketServer connection registry.
  ServerEngine = 20,  ///< ServerEngine session table + stats rollup.
  ServerWrite = 30,   ///< Per-connection / per-stream reply writers.
  ThreadPool = 40,    ///< support/ThreadPool queues and job state.
  SlowTraceRing = 55, ///< obs/SlowTraceRing file ring (holds its lock
                      ///< while exporting through a TraceSink: must
                      ///< stay below Trace).
  Profiler = 65,      ///< support/Profiler thread registry + aggregates
                      ///< (sampler thread holds it while folding; span
                      ///< hooks take it only on first-use registration).
  Trace = 70,         ///< support/TraceSink event stream.
  OpsRegistry = 80,   ///< obs/OpsRegistry instrument families.
  Log = 90,           ///< obs/Logger output stream (loggable from under
                      ///< almost anything).
  Leaf = 100,         ///< Ad-hoc leaf locks (tests, one-shot waiters);
                      ///< nothing may be acquired under one.
};

namespace sync_detail {

#if SEMINAL_SYNC_RANK_CHECKS
/// Aborts (after printing both lock sets to stderr) if acquiring a lock
/// of rank \p Rank would violate the strict-increase discipline on this
/// thread, including re-acquiring \p Addr itself in any mode.
void checkRank(const void *Addr, uint16_t Rank, const char *Name);
/// Pushes the lock onto the calling thread's held stack.
void pushHeld(const void *Addr, uint16_t Rank, const char *Name);
/// Removes the lock from the calling thread's held stack (tolerates a
/// lock acquired while checking was disabled).
void popHeld(const void *Addr);
#else
inline void checkRank(const void *, uint16_t, const char *) {}
inline void pushHeld(const void *, uint16_t, const char *) {}
inline void popHeld(const void *) {}
#endif

} // namespace sync_detail

/// Runtime toggle for the rank checker (no-op when compiled out).
/// Returns the previous setting. Checking defaults to on; the daemon
/// and tests may flip it, e.g. to prove the checker itself fires.
bool setRankChecksEnabled(bool Enabled);
bool rankChecksEnabled();

//===----------------------------------------------------------------------===//
// Mutex / SharedMutex / CondVar
//===----------------------------------------------------------------------===//

/// An annotated, ranked std::mutex. Prefer the MutexLock RAII guard;
/// the raw lock()/unlock() surface exists for the guard and for
/// CondVar's BasicLockable requirement.
class SEMINAL_CAPABILITY("mutex") Mutex {
public:
  explicit Mutex(LockRank Rank = LockRank::Leaf, const char *Name = "mutex")
      : Rank(uint16_t(Rank)), Name(Name) {}
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() SEMINAL_ACQUIRE() {
    sync_detail::checkRank(this, Rank, Name);
    M.lock();
    sync_detail::pushHeld(this, Rank, Name);
  }
  void unlock() SEMINAL_RELEASE() {
    sync_detail::popHeld(this);
    M.unlock();
  }

  const char *name() const { return Name; }
  uint16_t rank() const { return Rank; }

private:
  std::mutex M;
  const uint16_t Rank;
  const char *const Name;
};

/// An annotated, ranked std::shared_mutex. Shared (reader) acquisitions
/// obey the same rank discipline as exclusive ones, and upgrading --
/// acquiring exclusively while already holding shared -- is reported as
/// the self-deadlock it is.
class SEMINAL_CAPABILITY("shared_mutex") SharedMutex {
public:
  explicit SharedMutex(LockRank Rank = LockRank::Leaf,
                       const char *Name = "shared_mutex")
      : Rank(uint16_t(Rank)), Name(Name) {}
  SharedMutex(const SharedMutex &) = delete;
  SharedMutex &operator=(const SharedMutex &) = delete;

  void lock() SEMINAL_ACQUIRE() {
    sync_detail::checkRank(this, Rank, Name);
    M.lock();
    sync_detail::pushHeld(this, Rank, Name);
  }
  void unlock() SEMINAL_RELEASE() {
    sync_detail::popHeld(this);
    M.unlock();
  }
  void lock_shared() SEMINAL_ACQUIRE_SHARED() {
    sync_detail::checkRank(this, Rank, Name);
    M.lock_shared();
    sync_detail::pushHeld(this, Rank, Name);
  }
  void unlock_shared() SEMINAL_RELEASE_SHARED() {
    sync_detail::popHeld(this);
    M.unlock_shared();
  }

  const char *name() const { return Name; }
  uint16_t rank() const { return Rank; }

private:
  std::shared_mutex M;
  const uint16_t Rank;
  const char *const Name;
};

/// RAII exclusive lock. Relockable: unlock()/lock() support the
/// drop-the-lock-around-work pattern (ThreadPool::workerMain) with the
/// scoped state still tracked by TSA.
class SEMINAL_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex &M) SEMINAL_ACQUIRE(M) : M(M), Held(true) {
    M.lock();
  }
  ~MutexLock() SEMINAL_RELEASE() {
    if (Held)
      M.unlock();
  }
  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;

  void unlock() SEMINAL_RELEASE() {
    M.unlock();
    Held = false;
  }
  void lock() SEMINAL_ACQUIRE() {
    M.lock();
    Held = true;
  }

private:
  Mutex &M;
  bool Held;
};

/// RAII shared (reader) lock on a SharedMutex.
class SEMINAL_SCOPED_CAPABILITY ReaderLock {
public:
  explicit ReaderLock(SharedMutex &M) SEMINAL_ACQUIRE_SHARED(M)
      : M(M), Held(true) {
    M.lock_shared();
  }
  ~ReaderLock() SEMINAL_RELEASE() {
    if (Held)
      M.unlock_shared();
  }
  ReaderLock(const ReaderLock &) = delete;
  ReaderLock &operator=(const ReaderLock &) = delete;

  void unlock() SEMINAL_RELEASE() {
    M.unlock_shared();
    Held = false;
  }

private:
  SharedMutex &M;
  bool Held;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class SEMINAL_SCOPED_CAPABILITY WriterLock {
public:
  explicit WriterLock(SharedMutex &M) SEMINAL_ACQUIRE(M) : M(M), Held(true) {
    M.lock();
  }
  ~WriterLock() SEMINAL_RELEASE() {
    if (Held)
      M.unlock();
  }
  WriterLock(const WriterLock &) = delete;
  WriterLock &operator=(const WriterLock &) = delete;

  void unlock() SEMINAL_RELEASE() {
    M.unlock();
    Held = false;
  }

private:
  SharedMutex &M;
  bool Held;
};

/// Condition variable bound to sync::Mutex. wait() releases and
/// re-acquires through the Mutex wrapper, so the rank checker sees the
/// re-acquisition (waiting while holding a higher-ranked lock aborts,
/// exactly like any other inversion). No predicate overload on purpose:
/// TSA cannot see that a predicate lambda runs under the lock, so
/// callers write explicit `while (!cond) CV.wait(M);` loops, which the
/// analysis proves access guarded state correctly.
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar &) = delete;
  CondVar &operator=(const CondVar &) = delete;

  /// Atomically releases \p M and blocks; re-acquires before returning.
  /// Spurious wakeups happen: always wait in a predicate loop.
  void wait(Mutex &M) SEMINAL_REQUIRES(M) { CV.wait(M); }

  /// Timed wait (same contract; periodic threads like the profiler's
  /// sampler wake on the earlier of notify and deadline). Returns
  /// std::cv_status::timeout when the duration elapsed.
  template <class Rep, class Period>
  std::cv_status wait_for(Mutex &M,
                          const std::chrono::duration<Rep, Period> &D)
      SEMINAL_REQUIRES(M) {
    return CV.wait_for(M, D);
  }

  void notify_one() { CV.notify_one(); }
  void notify_all() { CV.notify_all(); }

private:
  /// _any: waits on the annotated wrapper (a BasicLockable), keeping
  /// rank bookkeeping and TSA state consistent across the wait.
  std::condition_variable_any CV;
};

} // namespace sync
} // namespace seminal

#endif // SEMINAL_SUPPORT_SYNC_H
