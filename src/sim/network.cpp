#include "sim/network.h"

#include "util/ensure.h"

namespace cbc::sim {

SimNetwork::SimNetwork(Scheduler& scheduler,
                       std::unique_ptr<UniformJitterLatency> latency,
                       std::uint64_t seed)
    : scheduler_(scheduler), latency_(std::move(latency)), rng_(seed) {
  require(latency_ != nullptr, "SimNetwork: latency model required");
}

NodeId SimNetwork::add_node(Handler handler) {
  require(static_cast<bool>(handler), "SimNetwork::add_node: empty handler");
  handlers_.push_back(std::move(handler));
  return static_cast<NodeId>(handlers_.size() - 1);
}

void SimNetwork::send(NodeId from, NodeId to, SharedBuffer frame) {
  require(from < handlers_.size(), "SimNetwork::send: unknown sender");
  require(to < handlers_.size(), "SimNetwork::send: unknown receiver");
  require(frame != nullptr, "SimNetwork::send: null frame");
  stats_.sent += 1;
  stats_.bytes += frame->size();
  scheduler_.after(latency_->sample(rng_),
                   [this, from, to, frame = std::move(frame)] {
                     stats_.delivered += 1;
                     handlers_[to](from, WireFrame(frame));
                   });
}

}  // namespace cbc::sim
