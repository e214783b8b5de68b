// Measurement plumbing shared by the workloads: timed-phase samples, the
// end-to-end metric set, the per-layer metric set, and process gauges.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// One metric line of the final JSON object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one timed phase observed.
struct PhaseSamples {
  std::int64_t start_ns = 0;  ///< wall, phase start
  std::int64_t end_ns = 0;    ///< wall, last timed op completed
  std::uint64_t ops = 0;      ///< operations completed in the phase
  std::vector<std::int64_t> completion_ns;  ///< wall, one per op
  std::vector<std::int64_t> round_end_ns;   ///< wall, each timed round's end
  std::vector<double> op_latency_us;
  std::vector<double> stable_point_us;
  double cpu_s = 0.0;  ///< process user+sys over the phase
};

/// A run's verdict: attempted/failed operations and every problem found
/// by the output checks (any problem makes the run incorrect).
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::string problem) { problems.push_back(std::move(problem)); }
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// Nearest-rank percentile (q in [0,100]) of unsorted samples; 0 if none.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Ops per wall second over the last tenth of the timed rounds.
[[nodiscard]] double tail_rate(const PhaseSamples& phase);

[[nodiscard]] double process_cpu_seconds();
[[nodiscard]] double peak_rss_mb();

/// Inputs of the per-layer metric set, summed over the traced episodes.
/// Counters are deltas over the count window; spans, allocations and
/// bytes cover the timed rounds; gauges are read at the end.
struct LayerInputs {
  std::uint64_t ops = 0;        ///< ops of the timed phase
  std::uint64_t count_ops = 0;  ///< ops of the count window
  std::map<std::string, double> counters;  ///< registry deltas (+ "net.datagrams")
  /// The count window repeats exactly per seed (simulation): only the
  /// first traced episode's window is kept, so the ratios repeat too.
  bool exact_counts = false;
  std::map<std::string, double> gauges;    ///< registry values at the end
  const SpanRecorder* spans = nullptr;
  std::array<std::uint64_t, kLayerCount> allocs{};  ///< phase deltas
  std::uint64_t net_bytes = 0;
  std::uint64_t flight_records = 0;
  double loop_cpu_s = 0.0;  ///< event-loop thread CPU over the timed rounds
  double wall_s = 0.0;      ///< wall time of the timed rounds
  double graph_nodes = 0.0;    ///< per member, at the end
  double check_retained = 0.0; ///< per member, at the end
  double stable_states = 0.0;  ///< per member, at the end
  double token_bytes_per_request = 0.0;
  double client_resends = 0.0;
  double client_exchanges = 0.0;
  double untraced_ops_per_s = 0.0;
  double traced_ops_per_s = 0.0;

  /// Folds one traced episode's inputs into this total.
  void add(const LayerInputs& episode);
};

/// One episode: fresh stacks, warm-up, a fixed number of timed rounds,
/// output checks.
struct Episode {
  double setup_s = 0.0;  ///< build + warm-up
  PhaseSamples phase;
  Verdict verdict;
  LayerInputs layers;  ///< traced episodes only
};

/// Ops per wall second of one episode's timed rounds.
[[nodiscard]] double ops_per_second(const PhaseSamples& phase);

/// Episodes whose samples the simulated-time latencies pool. A run always
/// completes this many, so those figures depend only on the seed and the
/// code, never on how many episodes the machine fitted into the run.
inline constexpr std::size_t kPooledEpisodes = 12;

/// The end-to-end metrics in BENCHMARK.json order. Each wall-clock metric
/// is the best value any episode reached: the machine is shared, and its
/// contention comes in bursts of seconds that slow whole episodes, so the
/// best episode measures the code rather than its neighbours. Latencies in
/// simulated time (`simulated_latency`) pool the samples of the first
/// kPooledEpisodes episodes.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(
    const std::vector<Episode>& episodes, bool simulated_latency);

/// Every per-layer metric, in BENCHMARK.json order (0 where a layer is
/// not on the workload's path).
[[nodiscard]] std::vector<Metric> per_layer_metrics(const LayerInputs& in);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Verdict& verdict,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
