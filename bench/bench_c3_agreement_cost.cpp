// C3 — Claim (§3.2, §7): agreement at stable points needs NO explicit
// agreement protocol — members "reach agreement without requiring
// separate message exchanges across entities" — and operates at the
// granularity of message SETS rather than individual messages.
//
// The same workload (30 cycles of 9 commutative ops + 1 sync op, the
// paper's 90% mix) runs under three protocols; we count wire messages,
// agreement events, and the latency until an operation is applied
// everywhere.
#include "apps/counter.h"
#include "baseline/explicit_agreement.h"
#include "baseline/total_replica.h"
#include "bench_common.h"
#include "replica/replica_group.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cbc {
namespace {

using benchkit::Table;
using testkit::SimEnv;

constexpr std::size_t kMembers = 4;
constexpr int kCycles = 30;
constexpr int kCommutativePerCycle = 9;

SimEnv::Config config_for() {
  SimEnv::Config config;
  config.jitter_us = 1000;
  config.seed = 21;
  return config;
}

struct Costs {
  std::uint64_t wire_msgs = 0;
  std::uint64_t agreement_events = 0;  // stable points / commits / stamps
  std::uint64_t ops = 0;
  SimTime sim_time_us = 0;
};

Costs run_stable_point() {
  SimEnv env(config_for());
  ReplicaGroup<apps::Counter> group(env.transport, kMembers,
                                    apps::Counter::spec());
  Rng rng(3);
  Costs costs;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int k = 0; k < kCommutativePerCycle; ++k) {
      group.node(rng.next_below(kMembers)).submit(apps::Counter::inc(1));
      ++costs.ops;
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(250)));
    }
    group.node(0).submit(apps::Counter::rd());
    ++costs.ops;
    env.run();
  }
  costs.wire_msgs = env.network.stats().sent;
  costs.agreement_events = group.node(0).detector().cycles();
  costs.sim_time_us = env.scheduler.now();
  return costs;
}

Costs run_explicit_agreement() {
  SimEnv env(config_for());
  const GroupView view = testkit::make_view(kMembers);
  std::vector<std::unique_ptr<ExplicitAgreementNode<apps::Counter>>> nodes;
  for (std::size_t i = 0; i < kMembers; ++i) {
    nodes.push_back(std::make_unique<ExplicitAgreementNode<apps::Counter>>(
        env.transport, view));
  }
  Rng rng(3);
  Costs costs;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int k = 0; k < kCommutativePerCycle; ++k) {
      nodes[rng.next_below(kMembers)]->submit(apps::Counter::inc(1));
      ++costs.ops;
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(250)));
    }
    nodes[0]->submit(apps::Counter::rd());
    ++costs.ops;
    env.run();
  }
  costs.wire_msgs = env.network.stats().sent;
  std::uint64_t commits = 0;
  for (const auto& node : nodes) {
    commits += node->stats().rounds_completed;  // one ack round per op
  }
  costs.agreement_events = commits;
  costs.sim_time_us = env.scheduler.now();
  return costs;
}

Costs run_sequencer() {
  SimEnv env(config_for());
  const GroupView view = testkit::make_view(kMembers);
  TotalReplicaNode<apps::Counter>::Options options;
  options.engine = TotalOrderEngine::kSequencer;
  std::vector<std::unique_ptr<TotalReplicaNode<apps::Counter>>> nodes;
  for (std::size_t i = 0; i < kMembers; ++i) {
    nodes.push_back(std::make_unique<TotalReplicaNode<apps::Counter>>(
        env.transport, view, options));
  }
  Rng rng(3);
  Costs costs;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int k = 0; k < kCommutativePerCycle; ++k) {
      nodes[rng.next_below(kMembers)]->submit(apps::Counter::inc(1));
      ++costs.ops;
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(250)));
    }
    nodes[0]->submit(apps::Counter::rd());
    ++costs.ops;
    env.run();
  }
  costs.wire_msgs = env.network.stats().sent;
  costs.agreement_events = costs.ops;  // every message individually ordered
  costs.sim_time_us = env.scheduler.now();
  return costs;
}

int run() {
  benchkit::banner("C3", "agreement cost: stable points vs explicit protocols");
  const Costs sp = run_stable_point();
  const Costs ea = run_explicit_agreement();
  const Costs sq = run_sequencer();

  Table table({"protocol", "ops", "wire_msgs", "msgs_per_op",
               "agreement_events", "ops_per_agreement", "sim_time_ms"});
  auto add = [&table](const char* name, const Costs& costs) {
    table.row({name, benchkit::num(costs.ops), benchkit::num(costs.wire_msgs),
               benchkit::num(static_cast<double>(costs.wire_msgs) /
                             static_cast<double>(costs.ops)),
               benchkit::num(costs.agreement_events),
               benchkit::num(static_cast<double>(costs.ops) /
                             static_cast<double>(costs.agreement_events)),
               benchkit::num(static_cast<double>(costs.sim_time_us) / 1000.0)});
  };
  add("stable-point (OSend, no agreement msgs)", sp);
  add("explicit agreement (propose/ack/commit)", ea);
  add("sequencer total order (per-message)", sq);
  table.print();

  benchkit::claim(
      "agreement on the value of shared data is feasible at the higher "
      "granularity of message sets (stable points) rather than individual "
      "messages, without explicit agreement protocols (§3.2, §7)");
  benchkit::measured(
      "stable-point protocol: " +
      benchkit::num(static_cast<double>(sp.wire_msgs) /
                    static_cast<double>(sp.ops)) +
      " msgs/op and 1 agreement event per " +
      benchkit::num(static_cast<double>(sp.ops) /
                    static_cast<double>(sp.agreement_events)) +
      " ops, vs explicit agreement's " +
      benchkit::num(static_cast<double>(ea.wire_msgs) /
                    static_cast<double>(ea.ops)) +
      " msgs/op with one agreement round per op");
  return 0;
}

}  // namespace
}  // namespace cbc

int main() { return cbc::run(); }
