// The three workloads, run as episodes: each episode builds fresh stacks
// (set-up), warms up, runs a fixed number of closed-loop timed rounds, and
// checks its outputs. A run repeats episodes until its time is spent;
// report.h says how the episodes become one result. Every episode reaches
// the same history length, so history-dependent costs compare like for
// like across runs and commits.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;  ///< node_long | kv_mix | node_faulty_sim
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Timed rounds per episode (0 = the workload's own size).
  std::uint64_t rounds = 0;
};

/// Runs one episode. `episode_seed` derives every generated input;
/// `traced` splices the span decorators and obs hooks in. Parity lines go
/// to `parity` when it is non-null; exact-count lines go to `counts`.
Episode run_node_episode(const RunOptions& options, std::uint64_t episode_seed,
                         bool traced, std::ostream* parity,
                         std::ostream& counts);
Episode run_kv_episode(const RunOptions& options, std::uint64_t episode_seed,
                       bool traced, std::ostream* parity);

/// Derives an independent input seed from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Distinct free loopback UDP ports for a cluster configuration.
[[nodiscard]] std::vector<std::uint16_t> reserve_udp_ports(std::size_t count);

/// CPU time of the calling thread.
[[nodiscard]] double thread_cpu_seconds();

}  // namespace perfbench
