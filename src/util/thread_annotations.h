// Thread-safety capabilities for the protocol stack.
//
// One mutex type, two enforcement regimes:
//
//   * Under clang, the CBC_* macros expand to Thread Safety Analysis
//     attributes, so "which lock guards what" and "which helpers need the
//     lock held" are compile-time-checked (`-Wthread-safety -Werror` in
//     CI). Misuse — touching a CBC_GUARDED_BY member without the lock,
//     calling a CBC_REQUIRES helper unlocked — is a build error.
//   * Everywhere (clang and gcc alike), cbc::Mutex carries the ranked
//     lock-order discipline at runtime: the stack's lock hierarchy is
//     acquired top-down, and every acquisition asserts non-decreasing
//     rank BEFORE blocking, so a would-be deadlock reports as a
//     deterministic LogicError naming both locks instead of hanging.
//
// The rank hierarchy (acquired top-down, lower rank first):
//
//   kRankRegistry  (50)   MetricsRegistry — the scrape path holds it while
//                         running collectors that take component locks, so
//                         it must sit BELOW every component rank. Never
//                         call registry lookups while holding a component
//                         lock (resolve handles up front instead).
//   kRankStack    (100)   a member's stack_mutex() — broadcast/receive
//                         paths and every upper layer (lock arbiter,
//                         replica, name service). Recursive by design.
//   kRankReliable (200)   ReliableEndpoint's link-state mutex
//   kRankTransport(300)   transport decorators (batching queues, chaos
//                         state, UDP send stats)
//   kRankLoopPending(800) EventLoop's cross-thread task queue (posted
//                         and scheduled from under any lock above)
//   kRankLeaf     (900)   push-only leaves (the object catalog) —
//                         safe to take while holding anything above.
//
// Header-only and dependency-free (util/ensure.h only) so every layer can
// use it without extra linkage. This header is the ONLY place raw
// std::mutex / std::lock_guard / std::unique_lock may appear (lint L1).
#pragma once

#include <cstddef>
#include <mutex>
#include <string>

#include "util/ensure.h"

// ---------------------------------------------------------------------------
// Attribute macros — clang Thread Safety Analysis, no-ops elsewhere.
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CBC_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CBC_THREAD_ANNOTATION
#define CBC_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// Marks a type as a capability ("mutex" in diagnostics).
#define CBC_CAPABILITY(x) CBC_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose lifetime holds a capability.
#define CBC_SCOPED_CAPABILITY CBC_THREAD_ANNOTATION(scoped_lockable)

/// Member may only be read/written while holding the named capability.
#define CBC_GUARDED_BY(x) CBC_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the *pointee* is guarded by the named capability.
#define CBC_PT_GUARDED_BY(x) CBC_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held on entry (and does not release).
#define CBC_REQUIRES(...) \
  CBC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (held on return).
#define CBC_ACQUIRE(...) CBC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry).
#define CBC_RELEASE(...) CBC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard).
#define CBC_EXCLUDES(...) CBC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime-checked claim that the capability is held (e.g. "we are on the
/// loop thread"); the analysis trusts it from this point on.
#define CBC_ASSERT_CAPABILITY(x) CBC_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define CBC_RETURN_CAPABILITY(x) CBC_THREAD_ANNOTATION(lock_returned(x))

// No escape-hatch macro exempts a function body: the analysis checks
// every function in src/.

namespace cbc {

// ---------------------------------------------------------------------------
// Lock ranks.
// ---------------------------------------------------------------------------

inline constexpr int kRankRegistry = 50;     ///< MetricsRegistry tables
inline constexpr int kRankStack = 100;       ///< member stack_mutex()
inline constexpr int kRankReliable = 200;    ///< ReliableEndpoint state
inline constexpr int kRankTransport = 300;   ///< transport decorator state
inline constexpr int kRankLoopPending = 800; ///< EventLoop posted tasks
inline constexpr int kRankLeaf = 900;        ///< push-only leaves

namespace check_detail {

/// One lock currently held by this thread.
struct HeldLock {
  const void* address = nullptr;
  int rank = 0;
  const char* name = "";
};

/// Per-thread stack of held ranked locks. Deliberately a fixed array: the
/// hierarchy is a handful of levels deep and recursion is shallow;
/// overflow means the hierarchy itself is broken.
struct HeldLockStack {
  static constexpr std::size_t kCapacity = 16;
  HeldLock entries[kCapacity];
  std::size_t depth = 0;
};

inline thread_local HeldLockStack held_locks;

inline void note_acquire(const void* address, int rank, const char* name) {
  HeldLockStack& held = held_locks;
  ensure(held.depth < HeldLockStack::kCapacity,
         "lock-order: held-lock stack overflow");
  int max_rank = 0;
  const char* max_name = "";
  for (std::size_t i = 0; i < held.depth; ++i) {
    if (held.entries[i].address == address) {
      // Recursive re-entry of a mutex this thread already owns: always
      // safe, and exempt from the rank check.
      held.entries[held.depth++] = HeldLock{address, rank, name};
      return;
    }
    if (held.entries[i].rank > max_rank) {
      max_rank = held.entries[i].rank;
      max_name = held.entries[i].name;
    }
  }
  if (rank < max_rank) {
    throw LogicError("lock-order violated: acquiring '" + std::string(name) +
                     "' (rank " + std::to_string(rank) + ") while holding '" +
                     max_name + "' (rank " + std::to_string(max_rank) + ")");
  }
  held.entries[held.depth++] = HeldLock{address, rank, name};
}

inline void note_release(const void* address) {
  HeldLockStack& held = held_locks;
  for (std::size_t i = held.depth; i-- > 0;) {
    if (held.entries[i].address == address) {
      for (std::size_t j = i; j + 1 < held.depth; ++j) {
        held.entries[j] = held.entries[j + 1];
      }
      held.depth -= 1;
      return;
    }
  }
}

}  // namespace check_detail

// ---------------------------------------------------------------------------
// Annotated, ranked mutex wrappers.
// ---------------------------------------------------------------------------

/// std::mutex carrying a static capability and a runtime rank. The rank
/// check runs BEFORE blocking, so an inversion reports deterministically
/// instead of deadlocking.
class CBC_CAPABILITY("mutex") Mutex {
 public:
  Mutex(int rank, const char* name) noexcept : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CBC_ACQUIRE() {
    check_detail::note_acquire(this, rank_, name_);
    mu_.lock();
  }
  void unlock() CBC_RELEASE() {
    mu_.unlock();
    check_detail::note_release(this);
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] const char* name() const noexcept { return name_; }

  /// Enables `CBC_GUARDED_BY(!mu_)`-style negated-capability use.
  const Mutex& operator!() const { return *this; }

 private:
  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

/// std::recursive_mutex variant — stack mutexes are recursive by design
/// (a deliver callback may re-enter broadcast()).
class CBC_CAPABILITY("mutex") RecursiveMutex {
 public:
  RecursiveMutex(int rank, const char* name) noexcept
      : rank_(rank), name_(name) {}

  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  void lock() CBC_ACQUIRE() {
    check_detail::note_acquire(this, rank_, name_);
    mu_.lock();
  }
  void unlock() CBC_RELEASE() {
    mu_.unlock();
    check_detail::note_release(this);
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] const char* name() const noexcept { return name_; }

  const RecursiveMutex& operator!() const { return *this; }

 private:
  std::recursive_mutex mu_;
  const int rank_;
  const char* const name_;
};

/// Scoped lock over a cbc::Mutex or cbc::RecursiveMutex. Subsumes the old
/// OrderedLockGuard: the rank and name now live on the mutex, so the call
/// site is just `const LockGuard guard(mutex_);`.
template <typename MutexT>
class CBC_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(MutexT& mutex) CBC_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() CBC_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  MutexT& mutex_;
};

template <typename MutexT>
LockGuard(MutexT&) -> LockGuard<MutexT>;

}  // namespace cbc
