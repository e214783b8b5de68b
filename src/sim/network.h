// Simulated message-passing network over the discrete-event scheduler.
//
// Nodes register a receive handler and exchange immutable refcounted
// frames (util/buffer.h) — a broadcast shares one buffer across all
// destinations, so the network never copies a payload. The network only
// delays frames: each one arrives after a base latency plus uniform
// jitter (sim/latency.h), which reorders them but never loses or
// duplicates one. Loss, duplication, slow links, partitions and crashes
// come from a fault::FaultPlan, injected above the network by
// fault::ChaosTransport over SimTransport — the one fault model that
// simulation and the UDP cluster share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/latency.h"
#include "sim/scheduler.h"
#include "util/buffer.h"
#include "util/rng.h"
#include "util/types.h"

namespace cbc::sim {

/// Empty and ignored: the network injects no faults. perfbench's node
/// workload still passes one to the four-argument constructor; both go
/// with the next perfbench change (ROADMAP.md, perfbench mends).
struct FaultConfig {};

/// Aggregate traffic statistics, readable at any time.
struct NetStats {
  std::uint64_t sent = 0;       ///< send() calls accepted
  std::uint64_t delivered = 0;  ///< handler invocations
  std::uint64_t bytes = 0;      ///< frame bytes accepted by send()
};

/// The simulated network. Not thread-safe: it lives inside one Scheduler
/// run loop, which is single-threaded by construction.
class SimNetwork {
 public:
  /// Receive handler: (sender, frame). The frame's buffer is refcounted;
  /// handlers may retain it past the call (zero-copy hold-back).
  using Handler = std::function<void(NodeId from, const WireFrame& frame)>;

  /// `seed` drives the jitter draws.
  SimNetwork(Scheduler& scheduler,
             std::unique_ptr<UniformJitterLatency> latency,
             std::uint64_t seed);
  SimNetwork(Scheduler& scheduler,
             std::unique_ptr<UniformJitterLatency> latency,
             FaultConfig /*none*/, std::uint64_t seed)
      : SimNetwork(scheduler, std::move(latency), seed) {}

  /// Registers a node and returns its id (dense, starting at 0).
  NodeId add_node(Handler handler);

  /// Number of registered nodes.
  [[nodiscard]] std::size_t node_count() const { return handlers_.size(); }

  /// Sends `frame` from `from` to `to`; it is delivered once, after a
  /// sampled latency. Self-sends are allowed and also take that latency.
  /// The same SharedBuffer may be passed for any number of destinations.
  void send(NodeId from, NodeId to, SharedBuffer frame);

  /// Convenience for loose bytes (moves them into a frame, no copy).
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> payload) {
    send(from, to, make_buffer(std::move(payload)));
  }

  [[nodiscard]] const NetStats& stats() const { return stats_; }
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }

 private:
  Scheduler& scheduler_;
  std::unique_ptr<UniformJitterLatency> latency_;
  Rng rng_;
  std::vector<Handler> handlers_;
  NetStats stats_;
};

}  // namespace cbc::sim
