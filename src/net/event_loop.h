// Single-threaded readiness event loop driving UdpTransport.
//
// One thread — the loop thread — owns every socket and every protocol
// object above it. The loop is epoll + eventfd + timerfd, and it
// multiplexes three event sources:
//   - file descriptors (readable), registered with add_fd();
//   - timers, kept in a sim::Scheduler — the (deadline, arm order) queue
//     every simulated run uses — which the loop advances to its monotonic
//     clock once per iteration. The timerfd is armed at the queue's exact
//     next deadline, set only when that deadline moves or after it
//     expired, and never read: setting it clears the expiry;
//   - posted work, marshalled in via post()/schedule(). A post from
//     another thread writes the eventfd; a post from the loop thread
//     writes nothing, because the loop polls without blocking while any
//     posted task is pending.
//
// Threading contract: add_fd()/remove_fd() are loop-thread-only once run()
// has started (they may also be called before run(), from the thread that
// will not race run()). post()/schedule()/stop()/now_us() are safe from
// any thread. Handlers and timer actions always run on the loop thread,
// serially — protocol code above the loop needs no locking against the
// loop itself.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "sim/scheduler.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace cbc::net {

/// Phantom capability standing for "running on the loop thread". It is
/// never locked — it is claimed by EventLoop::assert_in_loop(), whose
/// runtime check backs the static assertion. Loop-confined state is
/// CBC_GUARDED_BY(loop.capability()) and loop-only entry points are
/// CBC_REQUIRES(loop.capability()), so calling one from off-loop without
/// the assert is a compile error under -Wthread-safety.
class CBC_CAPABILITY("loop thread") LoopCapability {};

/// Readiness loop: fds + timer queue + cross-thread task queue.
class EventLoop {
 public:
  /// Selects nothing: the loop has one backend and one timer queue. The
  /// fields remain only so that existing designated initializers compile.
  struct Options {
    bool force_poll = false;  ///< must be false: there is no poll backend
    struct Wheel {} wheel;    ///< inert: timers live in a sim::Scheduler
  };

  /// The loop's own wake-up and timer syscalls.
  struct Stats {
    std::uint64_t wakeup_writes = 0;  ///< eventfd writes
    std::uint64_t timer_rearms = 0;   ///< timerfd_settime calls
  };

  EventLoop() : EventLoop(Options{}) {}
  explicit EventLoop(Options options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// The loop-thread capability, for annotating loop-confined state and
  /// entry points in code built over this loop.
  [[nodiscard]] const LoopCapability& capability() const {
    return capability_;
  }

  /// Claims the loop-thread capability: statically (the analysis treats
  /// it as held from here on) and dynamically (aborts when called off the
  /// loop thread while the loop runs — defense in depth for gcc builds
  /// and for code paths the analysis cannot see).
  void assert_in_loop() const CBC_ASSERT_CAPABILITY(capability_) {
    require(!running() || in_loop_thread(),
            "EventLoop: loop-thread-only call made off the loop thread");
  }

  /// Registers `fd` for readability; `on_readable` runs on the loop thread
  /// each time the fd becomes readable. Loop-thread-only once running.
  void add_fd(int fd, std::function<void()> on_readable);

  /// Unregisters `fd`. Safe to call from inside its own handler.
  /// Loop-thread-only once running.
  void remove_fd(int fd);

  /// Enqueues `task` to run on the loop thread as soon as possible.
  /// Thread-safe. From another thread it wakes the loop if it is
  /// sleeping; from the loop thread it needs no wake-up, since the loop
  /// does not block while a posted task is pending.
  void post(std::function<void()> task);

  /// Runs `action` on the loop thread once `delay_us` microseconds have
  /// passed. Thread-safe.
  void schedule(SimTime delay_us, std::function<void()> action);

  /// Monotonic microseconds since loop construction. Thread-safe.
  [[nodiscard]] SimTime now_us() const;

  /// Runs the loop on the calling thread until stop(). Re-runnable after a
  /// stop, from any single thread at a time.
  void run();

  /// Asks the loop to return from run() after the current iteration.
  /// Thread-safe and idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// True iff called from the thread currently inside run().
  [[nodiscard]] bool in_loop_thread() const {
    return running() && loop_thread_.load() == std::this_thread::get_id();
  }

  /// Wake-up writes and timer re-arms so far. Thread-safe.
  [[nodiscard]] Stats stats() const {
    return {wakeup_writes_.load(std::memory_order_relaxed),
            timer_rearms_.load(std::memory_order_relaxed)};
  }

 private:
  struct Watch {
    int fd = -1;
    std::function<void()> on_readable;
  };

  void wake();
  void drain_wakeup();
  [[nodiscard]] bool has_posted_tasks() const;
  void run_posted_tasks() CBC_REQUIRES(capability_);
  void arm_timer_source() CBC_REQUIRES(capability_);
  void dispatch_fd(int fd) CBC_REQUIRES(capability_);
  [[nodiscard]] std::size_t watch_index(int fd) const
      CBC_REQUIRES(capability_);

  std::chrono::steady_clock::time_point epoch_;
  LoopCapability capability_;

  // Loop-thread-only state.
  std::vector<Watch> watches_ CBC_GUARDED_BY(capability_);
  sim::Scheduler timers_ CBC_GUARDED_BY(capability_);
  // The deadline the timerfd was last armed for (nullopt: disarmed), and
  // whether it has expired since. An expired timerfd stays readable until
  // the next timerfd_settime, which the next arm must therefore make.
  std::optional<SimTime> timer_due_ CBC_GUARDED_BY(capability_);
  bool timer_expired_ CBC_GUARDED_BY(capability_) = false;

  // Cross-thread state.
  std::atomic<std::thread::id> loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  mutable Mutex pending_mutex_{kRankLoopPending, "loop pending tasks"};
  std::vector<std::function<void()>> pending_
      CBC_GUARDED_BY(pending_mutex_);
  std::atomic<std::uint64_t> wakeup_writes_{0};
  std::atomic<std::uint64_t> timer_rearms_{0};

  int epoll_fd_ = -1;
  int timer_fd_ = -1;  // armed at the timer queue's next deadline
  int wake_fd_ = -1;   // eventfd written by a cross-thread post or stop()
};

}  // namespace cbc::net
