// Deterministic discrete-event scheduler.
//
// All protocol activity in simulation mode — message delivery, timers,
// workload arrivals — runs as events on one Scheduler. The real network's
// EventLoop (net/event_loop.h) keeps its timers in one too, advanced to
// its monotonic clock once per loop iteration. Events at equal times fire
// in insertion order (a strictly increasing tiebreak sequence), which
// makes whole-system runs bit-reproducible for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/types.h"

namespace cbc::sim {

/// Priority queue of timed callbacks with a virtual clock.
class Scheduler {
 public:
  using Action = std::function<void()>;

  /// Current virtual time (microseconds since simulation start).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `when` (must be >= now()).
  void at(SimTime when, Action action);

  /// Schedules `action` `delay` microseconds from now (delay >= 0).
  void after(SimTime delay, Action action);

  /// Runs the single earliest event. Returns false when the queue is empty.
  bool step();

  /// Runs events until the queue is empty (quiescence) or `max_events`
  /// have fired. Returns the number of events processed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with time <= `until`, advancing the clock to `until`
  /// even if the queue drains early. Returns events processed.
  std::size_t run_until(SimTime until);

  /// Time of the earliest pending event (nullopt: none pending).
  [[nodiscard]] std::optional<SimTime> next_at() const;

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // insertion order; ties broken FIFO
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // A binary min-heap under Later, kept with std::push_heap/pop_heap
  // rather than a std::priority_queue, whose const top() would force
  // step() to copy the action instead of moving it out.
  std::vector<Event> heap_;
};

}  // namespace cbc::sim
