#include "sim/latency.h"

#include "util/ensure.h"

namespace cbc::sim {

UniformJitterLatency::UniformJitterLatency(SimTime base, SimTime jitter)
    : base_(base), jitter_(jitter) {
  require(base >= 0, "UniformJitterLatency: negative base");
  require(jitter >= 0, "UniformJitterLatency: negative jitter");
}

SimTime UniformJitterLatency::sample(NodeId /*from*/, NodeId /*to*/, Rng& rng) {
  if (jitter_ == 0) {
    return base_;
  }
  return base_ + static_cast<SimTime>(rng.next_below(
                     static_cast<std::uint64_t>(jitter_) + 1));
}

MatrixLatency::MatrixLatency(std::size_t node_count, SimTime default_delay,
                             SimTime jitter)
    : node_count_(node_count),
      default_delay_(default_delay),
      jitter_(jitter),
      matrix_(node_count * node_count, -1) {
  require(node_count > 0, "MatrixLatency: node_count must be positive");
  require(default_delay >= 0, "MatrixLatency: negative default delay");
  require(jitter >= 0, "MatrixLatency: negative jitter");
}

void MatrixLatency::set(NodeId from, NodeId to, SimTime delay) {
  require(from < node_count_ && to < node_count_, "MatrixLatency::set: node out of range");
  require(delay >= 0, "MatrixLatency::set: negative delay");
  matrix_[static_cast<std::size_t>(from) * node_count_ + to] = delay;
}

void MatrixLatency::set_symmetric(NodeId a, NodeId b, SimTime delay) {
  set(a, b, delay);
  set(b, a, delay);
}

SimTime MatrixLatency::sample(NodeId from, NodeId to, Rng& rng) {
  SimTime base = default_delay_;
  if (from < node_count_ && to < node_count_) {
    const SimTime configured =
        matrix_[static_cast<std::size_t>(from) * node_count_ + to];
    if (configured >= 0) {
      base = configured;
    }
  }
  if (jitter_ == 0) {
    return base;
  }
  return base + static_cast<SimTime>(rng.next_below(
                    static_cast<std::uint64_t>(jitter_) + 1));
}

}  // namespace cbc::sim
