// Link latency models for the simulated network.
//
// A LatencyModel maps (from, to) to a per-message delay sample. Jittery
// models are what create message reordering on the wire — the phenomenon
// the paper's ordering layers must mask — so benches sweep jitter to show
// how each ordering discipline degrades.
#pragma once

#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace cbc::sim {

/// Samples a one-way link delay in microseconds for a (from, to) pair.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Returns the delay for one message; must be >= 0.
  [[nodiscard]] virtual SimTime sample(NodeId from, NodeId to, Rng& rng) = 0;
};

/// Base delay plus uniform jitter in [0, jitter]; jitter > 0 reorders
/// messages both within a link and across links.
class UniformJitterLatency final : public LatencyModel {
 public:
  UniformJitterLatency(SimTime base, SimTime jitter);
  [[nodiscard]] SimTime sample(NodeId from, NodeId to, Rng& rng) override;

 private:
  SimTime base_;
  SimTime jitter_;
};

/// Explicit per-pair delay matrix (e.g. to model one slow member). Pairs
/// not set fall back to a default delay. Jitter (uniform) applies on top.
class MatrixLatency final : public LatencyModel {
 public:
  MatrixLatency(std::size_t node_count, SimTime default_delay, SimTime jitter);

  /// Sets the base delay for the directed pair (from, to).
  void set(NodeId from, NodeId to, SimTime delay);

  /// Sets the base delay in both directions.
  void set_symmetric(NodeId a, NodeId b, SimTime delay);

  [[nodiscard]] SimTime sample(NodeId from, NodeId to, Rng& rng) override;

 private:
  std::size_t node_count_;
  SimTime default_delay_;
  SimTime jitter_;
  std::vector<SimTime> matrix_;  // node_count x node_count, -1 = unset
};

}  // namespace cbc::sim
