// A1 — Ablation: causal broadcasting vs lazy replication (paper ref [1]).
//
// The paper contrasts its model with "existing models ... where
// application level message causality information is used only indirectly
// [1, 4]". Lazy replication applies an op at one replica and gossips it;
// causal broadcasting pushes every op to every member immediately. We
// measure the *staleness window* (time from submit until every replica
// reflects the op) and the wire cost, across gossip intervals.
#include <memory>

#include "apps/counter.h"
#include "baseline/lazy_replication.h"
#include "bench_common.h"
#include "causal/osend.h"
#include "common/group_fixture.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cbc {
namespace {

using benchkit::Table;
using testkit::SimEnv;

constexpr std::size_t kMembers = 4;
constexpr int kOps = 100;

SimEnv::Config config_for() {
  SimEnv::Config config;
  config.jitter_us = 1000;
  config.seed = 51;
  return config;
}

struct Result {
  double staleness_p50_us = 0;
  double staleness_p99_us = 0;
  double msgs_per_op = 0;
};

// Staleness for lazy replication: submit, then step the sim until every
// node's value reflects the op count; record the gap.
Result run_lazy(SimTime gossip_interval) {
  SimEnv env(config_for());
  const GroupView view = testkit::make_view(kMembers);
  LazyReplicaNode<apps::Counter>::Options options;
  options.gossip_interval_us = gossip_interval;
  std::vector<std::unique_ptr<LazyReplicaNode<apps::Counter>>> nodes;
  for (std::size_t i = 0; i < kMembers; ++i) {
    nodes.push_back(std::make_unique<LazyReplicaNode<apps::Counter>>(
        env.transport, view, options));
  }
  Rng rng(9);
  Histogram staleness;
  std::int64_t total = 0;
  for (int op = 0; op < kOps; ++op) {
    total += 1;
    const SimTime submitted = env.scheduler.now();
    nodes[rng.next_below(kMembers)]->submit(apps::Counter::inc(1));
    // Step until the op is visible everywhere.
    for (;;) {
      bool everywhere = true;
      for (const auto& node : nodes) {
        everywhere = everywhere && node->state().value() >= total;
      }
      if (everywhere) {
        break;
      }
      if (!env.scheduler.step()) {
        break;
      }
    }
    staleness.add(static_cast<double>(env.scheduler.now() - submitted));
  }
  env.run();
  Result result;
  result.staleness_p50_us = staleness.percentile(50);
  result.staleness_p99_us = staleness.percentile(99);
  result.msgs_per_op = static_cast<double>(env.network.stats().sent) / kOps;
  return result;
}

Result run_causal() {
  SimEnv env(config_for());
  testkit::Group<OSendMember> group(env.transport, kMembers);
  Rng rng(9);
  Histogram staleness;
  for (int op = 0; op < kOps; ++op) {
    const SimTime submitted = env.scheduler.now();
    const std::size_t who = rng.next_below(kMembers);
    const std::size_t expected = static_cast<std::size_t>(op) + 1;
    group[who].osend("inc", {}, DepSpec::none());
    for (;;) {
      bool everywhere = true;
      for (std::size_t i = 0; i < kMembers; ++i) {
        everywhere = everywhere && group.log(i).size() >= expected;
      }
      if (everywhere) {
        break;
      }
      if (!env.scheduler.step()) {
        break;
      }
    }
    staleness.add(static_cast<double>(env.scheduler.now() - submitted));
  }
  env.run();
  Result result;
  result.staleness_p50_us = staleness.percentile(50);
  result.staleness_p99_us = staleness.percentile(99);
  result.msgs_per_op = static_cast<double>(env.network.stats().sent) / kOps;
  return result;
}

int run() {
  benchkit::banner("A1", "causal broadcast vs lazy replication (ref [1])");
  Table table({"protocol", "staleness_p50_us", "staleness_p99_us",
               "msgs_per_op"});
  const Result causal = run_causal();
  table.row({"causal broadcast (OSend)", benchkit::num(causal.staleness_p50_us),
             benchkit::num(causal.staleness_p99_us),
             benchkit::num(causal.msgs_per_op)});
  for (const SimTime interval : {SimTime{2000}, SimTime{10000}, SimTime{50000}}) {
    const Result lazy = run_lazy(interval);
    table.row({"lazy replication, gossip " + std::to_string(interval / 1000) +
                   "ms",
               benchkit::num(lazy.staleness_p50_us),
               benchkit::num(lazy.staleness_p99_us),
               benchkit::num(lazy.msgs_per_op)});
  }
  table.print();
  benchkit::claim(
      "integrating message causality directly (rather than indirectly as "
      "in lazy replication [1]) lets entities agree at message-exchange "
      "points instead of waiting out an anti-entropy interval");
  benchkit::measured(
      "causal broadcast bounds staleness by one link delay (~" +
      benchkit::num(causal.staleness_p99_us / 1000.0) +
      "ms p99); lazy replication's staleness tracks its gossip interval "
      "and can save messages only when updates batch between rounds");
  return 0;
}

}  // namespace
}  // namespace cbc

int main() { return cbc::run(); }
