#include "sim/latency.h"

#include "util/ensure.h"

namespace cbc::sim {

UniformJitterLatency::UniformJitterLatency(SimTime base, SimTime jitter)
    : base_(base), jitter_(jitter) {
  require(base >= 0, "UniformJitterLatency: negative base");
  require(jitter >= 0, "UniformJitterLatency: negative jitter");
}

SimTime UniformJitterLatency::sample(Rng& rng) const {
  if (jitter_ == 0) {
    return base_;
  }
  return base_ + static_cast<SimTime>(rng.next_below(
                     static_cast<std::uint64_t>(jitter_) + 1));
}

}  // namespace cbc::sim
