// ScheduleExplorer — DPOR-lite model checking over delivery interleavings.
//
// The deterministic simulator replays ONE schedule per seed; the explorer
// instead *enumerates* schedules. A scenario (group of members wrapped in
// InvariantCheckers over an ExplorerTransport) is re-constructed from
// scratch for every run; at each step the explorer picks which pending
// transport operation fires next. Because a run is a pure function of its
// choice sequence, the explorer can:
//
//   - exhaustively DFS-enumerate interleavings up to a schedule budget
//     (replay a recorded prefix, branch the deepest unexplored choice);
//   - continue with seeded random walks past the budget (recorded seeds,
//     so any failure is reproducible);
//   - on violation, greedily minimize the failing choice sequence toward
//     the FIFO schedule and emit a step-by-step trace of the minimal
//     failing interleaving plus the structured violation report.
//
// This turns the checker's paper invariants (Occurs_After precedence,
// agreed ASend order, stable-point state agreement) into properties tested
// across *every* explored schedule, not one hand-picked one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/explorer_transport.h"
#include "check/invariant_checker.h"
#include "util/rng.h"

namespace cbc::check {

/// One explorable system: members + checkers over the given transport.
/// The factory is invoked once per schedule; construction must register
/// every endpoint, start() issues the initial broadcasts (reactive sends
/// belong in delivery callbacks), and the monitor holds the verdict.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Issues the scenario's initial broadcasts.
  virtual void start() = 0;

  /// The monitor whose checkers wrap this scenario's members.
  [[nodiscard]] virtual InvariantMonitor& monitor() = 0;

  /// Optional app-level assertions at quiescence; add violations to the
  /// monitor's log to fail the schedule.
  virtual void on_quiescent() {}
};

using ScenarioFactory =
    std::function<std::unique_ptr<Scenario>(Transport& transport)>;

struct ExplorerOptions {
  /// DFS enumeration budget (number of schedules). The space is fully
  /// covered ("exhausted") when DFS runs out of unexplored branches first.
  std::size_t max_exhaustive_schedules = 1000;
  /// Additional seeded random walks after the DFS budget.
  std::size_t random_schedules = 0;
  std::uint64_t seed = 1;
  /// Per-schedule step cap (guards against timer re-arm loops). A
  /// truncated schedule skips the quiescence checks; online violations
  /// still count.
  std::size_t max_steps = 10000;
  /// When set, the explorer emits progress counters here
  /// (`<metrics_prefix>.schedules_explored` / `.minimize_steps` /
  /// `.violations_found`). Default: off.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "explorer";
};

struct ExplorerResult {
  std::size_t schedules_explored = 0;
  std::size_t distinct_schedules = 0;
  bool exhausted = false;         ///< DFS covered the entire space
  bool violation_found = false;
  /// Minimized failing choice sequence (empty when no violation). Replay
  /// with ScheduleExplorer::replay() to reproduce.
  std::vector<std::size_t> failing_schedule;
  std::uint64_t failing_seed = 0;  ///< seed of the failing random walk (0 = DFS)
  /// Step trace of the minimized failing schedule + violation report.
  std::string failure_report;

  [[nodiscard]] bool ok() const { return !violation_found; }
};

/// Enumerates schedules of one scenario and checks invariants on each.
class ScheduleExplorer {
 public:
  ScheduleExplorer(ScenarioFactory factory, ExplorerOptions options)
      : factory_(std::move(factory)), options_(std::move(options)) {
    if (options_.metrics != nullptr) {
      schedules_counter_ = &options_.metrics->counter(
          options_.metrics_prefix + ".schedules_explored");
      minimize_counter_ = &options_.metrics->counter(
          options_.metrics_prefix + ".minimize_steps");
      violations_counter_ = &options_.metrics->counter(
          options_.metrics_prefix + ".violations_found");
    }
  }

  /// Runs the exhaustive phase then the random phase; stops at the first
  /// violating schedule (minimized into the result).
  ExplorerResult explore();

  /// Re-executes one choice sequence (e.g. a reported failing_schedule)
  /// and returns the violation report ("" when that schedule is clean).
  std::string replay(const std::vector<std::size_t>& choices);

 private:
  struct RunRecord {
    std::vector<std::size_t> choices;  // actual choice taken at each step
    std::vector<std::size_t> fanout;   // pending-op count at each step
    bool truncated = false;            // hit max_steps before quiescence
    bool violated = false;
  };

  RunRecord run_one(const std::vector<std::size_t>& forced, Rng* rng,
                    std::vector<std::string>* trace);
  std::vector<std::size_t> minimize(std::vector<std::size_t> failing);
  void fill_failure(ExplorerResult& result,
                    const std::vector<std::size_t>& failing);

  ScenarioFactory factory_;
  ExplorerOptions options_;
  obs::Counter* schedules_counter_ = nullptr;
  obs::Counter* minimize_counter_ = nullptr;
  obs::Counter* violations_counter_ = nullptr;
};

}  // namespace cbc::check
