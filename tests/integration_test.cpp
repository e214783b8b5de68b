// Cross-module integration tests: the full stack under realistic fault
// envelopes, the paper's end-to-end scenarios, and the stack on real
// threads over loopback UDP.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <memory>
#include <thread>

#include "apps/card_game.h"
#include "apps/counter.h"
#include "apps/document.h"
#include "activity/transition_check.h"
#include "common/group_fixture.h"
#include "common/loop_runner.h"
#include "common/sim_env.h"
#include "common/udp_ports.h"
#include "fault/chaos_transport.h"
#include "lock/lock_arbiter.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "replica/replica_group.h"
#include "total/asend.h"
#include "util/rng.h"

namespace cbc {
namespace {

using testkit::Group;
using testkit::SimEnv;

// ---------- Figure 2 end-to-end, validated by the formal checker ----------

TEST(Integration, Figure2DeliveredStateIsTransitionPreserving) {
  // Run the Fig.2 scenario through the real stack, then validate the
  // delivered graph with the §4.1 transition-preservation checker on a
  // counter: mk=set(10), m1'=inc(1), m2'=inc(2), m3'=rd.
  SimEnv::Config config;
  config.jitter_us = 3000;
  config.seed = 5;
  SimEnv env(config);
  ReplicaGroup<apps::Counter> group(env.transport, 3, apps::Counter::spec());
  // The checker walks the graph node 0's deliveries describe.
  testkit::ReplicaRecorder<apps::Counter> recorded(group.node(0));
  group.node(2).submit(apps::Counter::set(10));
  env.run();
  group.node(0).submit(apps::Counter::inc(1));
  group.node(0).submit(apps::Counter::inc(2));
  env.run();
  group.node(1).submit(apps::Counter::rd());
  env.run();

  EXPECT_TRUE(group.stable_states_agree());
  EXPECT_EQ(group.node(0).state().value(), 13);

  // Validate against the formal definition: all allowed sequences of the
  // observed graph converge.
  const MessageGraph graph = recorded.graph();
  const auto result = check_transition_preserving(
      graph, apps::Counter{},
      [](apps::Counter& state, const GraphNode& node) {
        const std::string kind = CommutativitySpec::kind_of(node.label);
        Writer writer;
        if (kind == "set") writer.i64(10);
        // Node 0's first submission was inc(1), its second inc(2).
        if (kind == "inc") {
          writer.i64(node.label.find("#0.1") != std::string::npos ? 1 : 2);
        }
        Reader reader(writer.bytes());
        state.apply(kind, reader);
      });
  EXPECT_TRUE(result.transition_preserving);
}

// ---------- Full stack under loss + duplication + jitter ----------

TEST(Integration, ReplicaGroupSurvivesHostileNetwork) {
  SimEnv::Config config;
  config.jitter_us = 4000;
  config.fault_plan = "seed 23\nlink * * drop 0.2 dup 0.1\n";
  config.seed = 23;
  SimEnv env(config);
  typename ReplicaNode<apps::Counter>::Options options;
  options.member.reliability = {.control_interval_us = 3000, .enabled = true};
  ReplicaGroup<apps::Counter> group(env.transport, 4, apps::Counter::spec(),
                                    options);
  // Every cycle's coverage is checked.
  const auto recorders = testkit::record_replicas(group);
  Rng rng(17);
  std::int64_t expected = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int k = 0; k < 6; ++k) {
      const std::int64_t delta = rng.next_in(1, 5);
      expected += delta;
      group.node(rng.next_below(4)).submit(apps::Counter::inc(delta));
    }
    env.run();
    group.node(rng.next_below(4)).submit(apps::Counter::rd());
    env.run();
  }
  EXPECT_TRUE(group.states_agree());
  EXPECT_TRUE(group.stable_states_agree());
  EXPECT_EQ(group.node(0).state().value(), expected);
  for (std::size_t i = 0; i < 4; ++i) {
    for (const StablePoint& point : recorders[i]->points()) {
      EXPECT_TRUE(point.coverage_complete);
    }
  }
  EXPECT_GT(env.faults().drops, 0u);
  EXPECT_GT(env.faults().duplicates, 0u);
}

// ---------- Conferencing document over the replica protocol ----------

TEST(Integration, ConferencingDocumentConverges) {
  SimEnv::Config config;
  config.jitter_us = 5000;
  config.seed = 31;
  SimEnv env(config);
  ReplicaGroup<apps::Document> group(env.transport, 3, apps::Document::spec());
  group.node(0).submit(apps::Document::annotate("intro", "tighten claim"));
  group.node(1).submit(apps::Document::annotate("intro", "add citation"));
  group.node(2).submit(apps::Document::annotate("eval", "rerun with N=8"));
  env.run();
  group.node(0).submit(apps::Document::publish());
  env.run();
  EXPECT_TRUE(group.stable_states_agree());
  EXPECT_EQ(group.node(1).state().annotations("intro").size(), 2u);
  EXPECT_EQ(group.node(2).state().publish_count(), 1u);
}

// ---------- Card game (§5.1): relaxed deps through raw OSend ----------

TEST(Integration, CardGameRelaxedOrderStillConverges) {
  SimEnv::Config config;
  config.jitter_us = 4000;
  config.seed = 37;
  SimEnv env(config);
  const std::size_t players = 4;
  const apps::TurnPlan plan = apps::TurnPlan::relaxed({0, 0, 1, 0});
  Group<OSendMember> group(env.transport, players);
  std::vector<apps::CardGame> states(players);
  // Deliveries apply to each player's local game state.
  // (Group's members use a no-op deliver callback; apply from logs after.)
  std::vector<MessageId> play_ids(players);
  for (std::uint32_t l = 0; l < players; ++l) {
    const auto op = apps::CardGame::card(0, l, static_cast<std::int64_t>(l) * 10);
    DepSpec deps;
    if (l > 0) {
      deps = DepSpec::after(play_ids[plan.dependency(l)]);
    }
    play_ids[l] = group[l].osend(op.kind + "#" + std::to_string(l), op.args,
                                 deps);
    env.run_until(env.scheduler.now() + 500);
  }
  env.run();
  for (std::uint32_t p = 0; p < players; ++p) {
    ASSERT_EQ(group.log(p).size(), players);
    apps::CardGame game;
    for (const Delivery& delivery : group.log(p)) {
      Reader reader(delivery.payload());
      game.apply(CommutativitySpec::kind_of(delivery.label()), reader);
    }
    states[p] = game;
    // Dependency edges were honoured locally.
    EXPECT_TRUE(group.graph(p).is_valid_delivery_order(
        delivered_ids(group.log(p))));
  }
  for (std::uint32_t p = 1; p < players; ++p) {
    EXPECT_EQ(states[p], states[0]);
  }
}

// ---------- Locks guarding a replicated counter ----------

TEST(Integration, LockSerializedCriticalSectionsNeverOverlap) {
  SimEnv::Config config;
  config.jitter_us = 3000;
  config.seed = 41;
  SimEnv env(config);
  const std::size_t n = 3;
  const GroupView view = testkit::make_view(n);
  int in_critical_section = 0;
  int max_concurrent = 0;
  int sections = 0;
  std::vector<std::unique_ptr<LockArbiter>> arbiters;
  for (std::size_t i = 0; i < n; ++i) {
    arbiters.push_back(std::make_unique<LockArbiter>(
        env.transport, view, [&, i](std::uint64_t) {
          ++in_critical_section;
          max_concurrent = std::max(max_concurrent, in_critical_section);
          ++sections;
          // Simulate work: release after a delay.
          env.transport.schedule(500, [&, i] {
            --in_critical_section;
            arbiters[i]->release();
          });
        }));
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (auto& arbiter : arbiters) {
      arbiter->request();
    }
  }
  env.run();
  EXPECT_EQ(sections, 9);
  EXPECT_EQ(max_concurrent, 1);  // never two holders at once
}

// ---------- Whole stack on real threads ----------

/// `n` in-process members' loopback UDP endpoints behind a ChaosTransport
/// that delays every frame by up to 2 ms and gives a fifth of them an
/// overtaking delay. Members register before the loop starts; a
/// LoopRunner then delivers on the loop thread while the test thread
/// submits, so every stack, reliable and transport lock is taken from two
/// threads.
struct LoopbackNetwork {
  explicit LoopbackNetwork(std::size_t n)
      : udp(loop,
            net::ClusterConfig::localhost(testkit::reserve_udp_ports(n))),
        chaos(udp, chaos_options()) {}

  static fault::ChaosTransport::Options chaos_options() {
    fault::ChaosTransport::Options options;
    options.plan =
        fault::FaultPlan::parse("seed 3\nlink * * delay 0 2000 reorder 0.2\n");
    return options;
  }

  net::EventLoop loop;
  net::UdpTransport udp;
  fault::ChaosTransport chaos;
};

/// Polls `done` until it holds or 20 s pass; `done` reads member state
/// under each member's stack lock.
template <typename Done>
bool wait_until(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(Integration, ReplicaGroupOnLoopbackUdp) {
  LoopbackNetwork network(3);
  ReplicaNode<apps::Counter>::Options options;
  options.member.reliability.enabled = true;
  ReplicaGroup<apps::Counter> group(network.chaos, 3, apps::Counter::spec(),
                                    options);
  // Node i's current value and closed cycles, read under its stack lock
  // (the loop thread applies deliveries under the same lock).
  const auto read = [&group](std::size_t i) {
    ReplicaNode<apps::Counter>& node = group.node(i);
    const LockGuard guard(node.member().stack_mutex());
    return std::pair{node.state().value(), node.detector().cycles()};
  };
  const auto all_read = [&read](std::int64_t value, std::uint64_t cycles) {
    for (std::size_t i = 0; i < 3; ++i) {
      if (read(i) != std::pair{value, cycles}) {
        return false;
      }
    }
    return true;
  };
  testkit::LoopRunner runner(network.loop);
  group.node(0).submit(apps::Counter::inc(2));
  group.node(1).submit(apps::Counter::inc(3));
  group.node(2).submit(apps::Counter::inc(5));
  ASSERT_TRUE(wait_until([&] { return all_read(10, 0); }));
  group.node(0).submit(apps::Counter::rd());
  ASSERT_TRUE(wait_until([&] { return all_read(10, 1); }));
  for (std::size_t i = 0; i < 3; ++i) {
    ReplicaNode<apps::Counter>& node = group.node(i);
    const LockGuard guard(node.member().stack_mutex());
    ASSERT_TRUE(node.last_stable_state().has_value()) << "member " << i;
    EXPECT_EQ(node.last_stable_state()->value(), 10) << "member " << i;
  }
  EXPECT_GT(network.chaos.stats().delays, 0u);
}

TEST(Integration, ASendOnLoopbackUdpTotalOrder) {
  LoopbackNetwork network(3);
  const GroupView view = testkit::make_view(3);
  ASendMember::Options options;
  options.reliability.enabled = true;
  std::array<testkit::Recorder, 3> recorders;  // outlive the members
  std::vector<std::unique_ptr<ASendMember>> members;
  for (std::size_t i = 0; i < 3; ++i) {
    members.push_back(std::make_unique<ASendMember>(
        network.chaos, view, recorders[i].tap(), options));
  }
  // Member i's delivered ids, read under its stack lock.
  const auto ids = [&](std::size_t i) {
    const LockGuard guard(members[i]->stack_mutex());
    return recorders[i].ids();
  };
  testkit::LoopRunner runner(network.loop);
  for (int k = 0; k < 10; ++k) {
    members[static_cast<std::size_t>(k) % 3]->asend("m" + std::to_string(k),
                                                    {});
  }
  ASSERT_TRUE(wait_until([&] {
    for (std::size_t i = 0; i < 3; ++i) {
      if (ids(i).size() < 10) {
        return false;
      }
    }
    return true;
  }));
  const auto reference = ids(0);
  EXPECT_EQ(reference.size(), 10u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(ids(i), reference);
  }
}

}  // namespace
}  // namespace cbc
