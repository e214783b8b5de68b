// Shared test/bench fixture: a deterministic simulated environment
// (scheduler + network + transport). The network delays frames by a
// base latency plus jitter; every other fault — loss, duplication, slow
// links, partitions, crashes — is FaultPlan text, injected by a
// fault::ChaosTransport over the env's SimTransport, the same decorator
// `cbc_node --fault-plan` runs over UDP.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/chaos_transport.h"
#include "fault/fault_plan.h"
#include "group/group_view.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "transport/sim_transport.h"

namespace cbc::testkit {

/// Bundles the simulation substrate for one scenario.
struct SimEnv {
  struct Config {
    SimTime base_latency_us = 1000;
    SimTime jitter_us = 0;
    /// FaultPlan text (fault/fault_plan.h); empty injects nothing. A plan
    /// draws from its own `seed` line, not from `seed` below. Its
    /// partitions and crashes are windows in absolute simulated time.
    std::string fault_plan{};
    std::uint64_t seed = 42;  ///< the network's jitter stream
  };

  SimEnv() : SimEnv(Config{}) {}
  explicit SimEnv(const Config& config)
      : network(scheduler,
                std::make_unique<sim::UniformJitterLatency>(
                    config.base_latency_us, config.jitter_us),
                config.seed),
        sim_transport(network),
        chaos(make_chaos(sim_transport, config.fault_plan)),
        transport(chaos ? static_cast<Transport&>(*chaos) : sim_transport) {}

  /// Runs the simulation to quiescence and returns events processed.
  std::size_t run() { return scheduler.run(); }

  /// Runs until the given virtual time.
  std::size_t run_until(SimTime until) { return scheduler.run_until(until); }

  /// What the plan injected so far; all zero without a plan.
  [[nodiscard]] fault::ChaosTransport::ChaosStats faults() const {
    return chaos ? chaos->stats() : fault::ChaosTransport::ChaosStats{};
  }

  sim::Scheduler scheduler;
  sim::SimNetwork network;
  SimTransport sim_transport;
  std::unique_ptr<fault::ChaosTransport> chaos;  ///< null without a plan
  Transport& transport;  ///< `chaos` when a plan is set, else sim_transport

 private:
  static std::unique_ptr<fault::ChaosTransport> make_chaos(
      Transport& inner, const std::string& plan_text) {
    if (plan_text.empty()) {
      return nullptr;
    }
    fault::ChaosTransport::Options options;
    options.plan = fault::FaultPlan::parse(plan_text);
    return std::make_unique<fault::ChaosTransport>(inner, std::move(options));
  }
};

/// A group view {0..n-1} matching a freshly constructed SimEnv transport.
inline GroupView make_view(std::size_t n) {
  std::vector<NodeId> members;
  members.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    members.push_back(static_cast<NodeId>(i));
  }
  return GroupView(1, std::move(members));
}

}  // namespace cbc::testkit
