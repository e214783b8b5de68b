// Hashed timer wheel backing EventLoop (and through it,
// Transport::schedule for UdpTransport).
//
// The protocol stack arms many short, recurring timers (reliability
// control scans, retransmit periods, batching flush ticks) whose deadlines
// cluster within a few milliseconds. A hashed wheel gives O(1) insertion
// and amortized O(1) expiry for that distribution, where a binary heap
// would pay O(log n) per operation on the hot path. Deadlines hash into
// `slot_count` buckets of `granularity_us` width; entries whose deadline
// lies beyond one wheel revolution simply stay bucketed and are skipped
// until their revolution comes around (the classic "hashed wheel with
// deadline re-check" scheme — no hierarchical cascade needed at our
// horizon of slot_count * granularity_us).
//
// Firing order is deterministic: expired entries fire in (deadline,
// insertion seq) order regardless of slot hashing, so two timers armed for
// the same instant run in the order they were armed — the same contract
// the SimTransport scheduler provides.
//
// Not thread-safe: the owning EventLoop confines all access to the loop
// thread and marshals cross-thread schedule() calls itself.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/types.h"

namespace cbc::net {

/// Single-threaded hashed timer wheel over absolute microsecond deadlines.
class TimerWheel {
 public:
  struct Options {
    SimTime granularity_us = 200;  ///< slot width (timer resolution)
    std::size_t slot_count = 512;  ///< wheel horizon = count * granularity
  };

  TimerWheel() : TimerWheel(Options{}) {}
  explicit TimerWheel(Options options);

  /// Arms `action` for the absolute time `due_us` (clamped to now when in
  /// the past; call advance() to fire it).
  void schedule_at(SimTime due_us, std::function<void()> action);

  /// Fires every timer with deadline <= now_us, in (deadline, arm order).
  /// Actions run outside the wheel's internal state walk, so they may
  /// re-arm timers freely. Returns the number fired.
  std::size_t advance(SimTime now_us);

  /// Absolute deadline of the next armed timer at wheel resolution:
  /// the exact minimum deadline when it lies within the current
  /// revolution, otherwise a conservative earlier bound (never later than
  /// the true deadline, so callers sleeping until the hint cannot
  /// oversleep a timer).
  [[nodiscard]] std::optional<SimTime> next_due_hint() const;

  [[nodiscard]] bool empty() const { return armed_ == 0; }
  [[nodiscard]] std::size_t size() const { return armed_; }

 private:
  struct Entry {
    SimTime due_us = 0;
    std::uint64_t seq = 0;  // arm order, for deterministic ties
    std::function<void()> action;
  };

  [[nodiscard]] std::size_t slot_of(SimTime due_us) const {
    return static_cast<std::size_t>(
               static_cast<std::uint64_t>(due_us / options_.granularity_us)) %
           options_.slot_count;
  }

  Options options_;
  std::vector<std::vector<Entry>> slots_;
  std::size_t armed_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_advance_us_ = 0;
};

}  // namespace cbc::net
