#include "sim/scheduler.h"

#include <algorithm>

#include "util/ensure.h"

namespace cbc::sim {

void Scheduler::at(SimTime when, Action action) {
  require(when >= now_, "Scheduler::at: cannot schedule in the past");
  require(static_cast<bool>(action), "Scheduler::at: empty action");
  heap_.push_back(Event{when, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Scheduler::after(SimTime delay, Action action) {
  require(delay >= 0, "Scheduler::after: negative delay");
  at(now_ + delay, std::move(action));
}

bool Scheduler::step() {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  ensure(event.when >= now_, "Scheduler: time went backwards");
  now_ = event.when;
  event.action();
  return true;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && step()) {
    ++processed;
  }
  return processed;
}

std::size_t Scheduler::run_until(SimTime until) {
  require(until >= now_, "Scheduler::run_until: target in the past");
  std::size_t processed = 0;
  while (!heap_.empty() && heap_.front().when <= until) {
    step();
    ++processed;
  }
  now_ = until;
  return processed;
}

std::optional<SimTime> Scheduler::next_at() const {
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_.front().when;
}

}  // namespace cbc::sim
