// Link latency for the simulated network.
//
// Every simulated link delays a frame by a base latency plus uniform
// jitter. Jitter is what reorders messages on the wire — the phenomenon
// the paper's ordering layers must mask — so benches sweep it to show how
// each ordering discipline degrades. A slow link is a FaultPlan `delay`
// rule (fault/fault_plan.h), not a latency model.
#pragma once

#include "util/rng.h"
#include "util/types.h"

namespace cbc::sim {

/// Base delay plus uniform jitter in [0, jitter]; jitter > 0 reorders
/// messages both within a link and across links.
class UniformJitterLatency {
 public:
  UniformJitterLatency(SimTime base, SimTime jitter);

  /// One frame's delay in microseconds; draws from `rng` only when the
  /// jitter is non-zero.
  [[nodiscard]] SimTime sample(Rng& rng) const;

 private:
  SimTime base_;
  SimTime jitter_;
};

}  // namespace cbc::sim
