// Tests for the extension features: the lazy-replication baseline and
// scoped total order over a lossy network.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "apps/counter.h"
#include "baseline/lazy_replication.h"
#include "common/recorder.h"
#include "common/sim_env.h"
#include "total/scoped_order.h"
#include "util/rng.h"

namespace cbc {
namespace {

using testkit::SimEnv;

// ---------- Lazy replication baseline ----------

TEST(LazyReplication, LocalApplyIsImmediateRemoteIsLazy) {
  SimEnv env;
  const GroupView view = testkit::make_view(3);
  std::vector<std::unique_ptr<LazyReplicaNode<apps::Counter>>> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<LazyReplicaNode<apps::Counter>>(
        env.transport, view));
  }
  nodes[0]->submit(apps::Counter::inc(5));
  EXPECT_EQ(nodes[0]->state().value(), 5);   // applied locally at once
  EXPECT_EQ(nodes[1]->state().value(), 0);   // not yet propagated
  env.run();                                 // gossip runs
  EXPECT_EQ(nodes[1]->state().value(), 5);
  EXPECT_EQ(nodes[2]->state().value(), 5);
  EXPECT_GT(nodes[0]->stats().gossip_msgs, 0u);
}

TEST(LazyReplication, ConvergesUnderConcurrentWriters) {
  SimEnv::Config config;
  config.jitter_us = 2000;
  config.seed = 9;
  SimEnv env(config);
  const GroupView view = testkit::make_view(4);
  std::vector<std::unique_ptr<LazyReplicaNode<apps::Counter>>> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<LazyReplicaNode<apps::Counter>>(
        env.transport, view));
  }
  Rng rng(5);
  std::int64_t expected = 0;
  for (int k = 0; k < 60; ++k) {
    const std::int64_t delta = rng.next_in(1, 4);
    expected += delta;
    nodes[rng.next_below(4)]->submit(apps::Counter::inc(delta));
    env.run_until(env.scheduler.now() +
                  static_cast<SimTime>(rng.next_below(2000)));
  }
  env.run();
  for (const auto& node : nodes) {
    EXPECT_EQ(node->state().value(), expected);
  }
  EXPECT_EQ(env.scheduler.pending(), 0u);  // gossip timers disarmed
}

TEST(LazyReplication, VersionVectorTracksOrigins) {
  SimEnv env;
  const GroupView view = testkit::make_view(2);
  LazyReplicaNode<apps::Counter> a(env.transport, view);
  LazyReplicaNode<apps::Counter> b(env.transport, view);
  a.submit(apps::Counter::inc(1));
  a.submit(apps::Counter::inc(1));
  b.submit(apps::Counter::inc(1));
  env.run();
  EXPECT_EQ(a.version().at(0), 2u);
  EXPECT_EQ(a.version().at(1), 1u);
  EXPECT_EQ(a.version(), b.version());
}

TEST(ScopedOrderRobustness, SurvivesLossyNetwork) {
  SimEnv::Config config;
  config.jitter_us = 2000;
  config.fault_plan = "seed 33\nlink * * drop 0.25\n";
  config.seed = 33;
  SimEnv env(config);
  const GroupView view = testkit::make_view(3);
  ScopedOrderMember::Options options;
  options.member.reliability = {.control_interval_us = 3000, .enabled = true};
  std::array<testkit::Recorder, 3> recorders;  // outlive the members
  std::vector<std::unique_ptr<ScopedOrderMember>> members;
  for (std::size_t i = 0; i < 3; ++i) {
    members.push_back(std::make_unique<ScopedOrderMember>(
        env.transport, view, recorders[i].tap(), options));
  }
  const ScopeId scope = members[0]->open_scope("a");
  env.run();
  members[1]->send_scoped(scope, "x", {});
  members[2]->send_scoped(scope, "y", {});
  env.run();
  members[0]->close_scope(scope, "d");
  env.run();
  auto labels = [&](std::size_t i) {
    return delivered_labels(recorders[i].log());
  };
  ASSERT_EQ(labels(0).size(), 4u);
  EXPECT_EQ(labels(1), labels(0));
  EXPECT_EQ(labels(2), labels(0));
  EXPECT_GT(env.faults().drops, 0u);
}

}  // namespace
}  // namespace cbc
