// Tests for OSendMember: explicit-dependency causal broadcast (§3).
#include <gtest/gtest.h>

#include <algorithm>

#include "causal/osend.h"
#include "common/consistency_check.h"
#include "common/group_fixture.h"
#include "common/sim_env.h"
#include "util/rng.h"

namespace cbc {
namespace {

using testkit::ConsistencyVerdict;
using testkit::Group;
using testkit::SimEnv;

std::vector<std::uint8_t> bytes(std::uint8_t v) { return {v}; }

TEST(OSend, SenderDeliversOwnMessageImmediately) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 3);
  const MessageId id = group[0].osend("m", bytes(1), DepSpec::none());
  // Local delivery is synchronous inside osend().
  ASSERT_EQ(group.log(0).size(), 1u);
  EXPECT_EQ(group.log(0)[0].id, id);
  EXPECT_TRUE(group[0].has_delivered(id));
  EXPECT_TRUE(group.log(1).empty());  // network not yet run
  env.run();
  EXPECT_EQ(group.log(1).size(), 1u);
  EXPECT_EQ(group.log(2).size(), 1u);
}

TEST(OSend, UnconstrainedMessagesReachEveryMember) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    group[i].osend("m" + std::to_string(i), bytes(static_cast<std::uint8_t>(i)),
                   DepSpec::none());
  }
  env.run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(group.log(i).size(), 4u);
    EXPECT_EQ(group[i].stats().delivered, 4u);
  }
  EXPECT_TRUE(group.all_delivered_same_set());
}

TEST(OSend, DeliveryCarriesLabelDepsPayloadTimes) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 2);
  const MessageId first = group[0].osend("first", bytes(7), DepSpec::none());
  group[0].osend("second", bytes(9), DepSpec::after(first));
  env.run();
  ASSERT_EQ(group.log(1).size(), 2u);
  const Delivery& delivery = group.log(1)[1];
  EXPECT_EQ(delivery.label(), "second");
  EXPECT_EQ(std::vector<std::uint8_t>(delivery.payload().begin(),
                                      delivery.payload().end()),
            bytes(9));
  EXPECT_TRUE(delivery.deps().depends_on(first));
  EXPECT_EQ(delivery.sender, 0u);
  EXPECT_GE(delivery.delivered_at, delivery.sent_at);
}

TEST(OSend, DependencyEnforcedUnderHeavyJitter) {
  // The declared edge m1 -> m2 must hold at every member for every seed,
  // no matter how the network reorders the wire messages.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 5000;
    config.seed = seed;
    SimEnv env(config);
    Group<OSendMember> group(env.transport, 3);
    const MessageId m1 = group[0].osend("m1", bytes(1), DepSpec::none());
    const MessageId m2 = group[1].osend("m2", bytes(2), DepSpec::after(m1));
    env.run();
    for (std::size_t i = 0; i < 3; ++i) {
      const auto ids = delivered_ids(group.log(i));
      const auto pos1 = std::find(ids.begin(), ids.end(), m1);
      const auto pos2 = std::find(ids.begin(), ids.end(), m2);
      ASSERT_NE(pos1, ids.end()) << "seed " << seed;
      ASSERT_NE(pos2, ids.end()) << "seed " << seed;
      EXPECT_LT(pos1 - ids.begin(), pos2 - ids.begin()) << "seed " << seed;
    }
  }
}

TEST(OSend, SemanticOrderingOnly_NoFifoImposedOnIndependentMessages) {
  // Two independent messages from the SAME sender: OSend must be willing
  // to deliver them in arrival order (no incidental FIFO promotion) —
  // the paper's semantic-ordering stance. With jitter, some member sees
  // them swapped, and neither is ever held back.
  bool saw_swap = false;
  for (std::uint64_t seed = 1; seed <= 30 && !saw_swap; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 4000;
    config.seed = seed;
    SimEnv env(config);
    Group<OSendMember> group(env.transport, 2);
    const MessageId a = group[0].osend("a", bytes(1), DepSpec::none());
    const MessageId b = group[0].osend("b", bytes(2), DepSpec::none());
    env.run();
    EXPECT_EQ(group[1].stats().held_back, 0u);
    const auto ids = delivered_ids(group.log(1));
    ASSERT_EQ(ids.size(), 2u);
    saw_swap = (ids[0] == b && ids[1] == a);
  }
  EXPECT_TRUE(saw_swap) << "jitter never produced a swapped arrival";
}

TEST(OSend, Figure2Scenario) {
  // R(M) = mk -> ||{m1', m2'} -> m3' (paper Figure 2): mk from a_k, two
  // concurrent messages from a_i, and a closing sync message.
  SimEnv::Config config;
  config.jitter_us = 3000;
  config.seed = 11;
  SimEnv env(config);
  Group<OSendMember> group(env.transport, 3);
  const MessageId mk = group[2].osend("mk", bytes(0), DepSpec::none());
  const MessageId m1 = group[0].osend("m1'", bytes(1), DepSpec::after(mk));
  const MessageId m2 = group[0].osend("m2'", bytes(2), DepSpec::after(mk));
  const MessageId m3 =
      group[1].osend("m3'", bytes(3), DepSpec::after_all({m1, m2}));
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    const auto ids = delivered_ids(group.log(i));
    ASSERT_EQ(ids.size(), 4u);
    EXPECT_EQ(ids.front(), mk);  // mk precedes everything
    EXPECT_EQ(ids.back(), m3);   // the sync message closes the activity
    // The member's own graph validates its own delivery order.
    EXPECT_TRUE(group.graph(i).is_valid_delivery_order(ids));
    EXPECT_TRUE(group.graph(i).concurrent(m1, m2));
  }
}

TEST(OSend, GraphIdenticalAtAllMembers) {
  SimEnv::Config config;
  config.jitter_us = 2000;
  config.seed = 3;
  SimEnv env(config);
  Group<OSendMember> group(env.transport, 3);
  const MessageId a = group[0].osend("a", bytes(1), DepSpec::none());
  const MessageId b = group[1].osend("b", bytes(2), DepSpec::after(a));
  group[2].osend("c", bytes(3), DepSpec::after_all({a, b}));
  env.run();
  // The *stable form* of the dependency graph (§3.2): same nodes, same
  // edges at every member, regardless of local delivery order.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(group.graph(i).size(), 3u);
    EXPECT_TRUE(group.graph(i).closed());
    for (const MessageId& id : group.graph(0).insertion_order()) {
      ASSERT_TRUE(group.graph(i).contains(id));
      EXPECT_EQ(group.graph(i).direct_deps(id),
                group.graph(0).direct_deps(id));
    }
  }
}

TEST(OSend, HoldbackCascadeDrainsInOneArrival) {
  // A chain m1 -> m2 -> m3 where m2, m3 arrive long before m1 (m1's links
  // are slow): both wait, then one arrival releases the whole chain.
  sim::Scheduler scheduler;
  auto latency = std::make_unique<sim::MatrixLatency>(3, 1000, 0);
  latency->set(0, 2, 50000);  // node0 -> node2 is very slow
  sim::SimNetwork network(scheduler, std::move(latency), {}, 1);
  SimTransport transport(network);
  Group<OSendMember> group(transport, 3);
  const MessageId m1 = group[0].osend("m1", bytes(1), DepSpec::none());
  const MessageId m2 = group[1].osend("m2", bytes(2), DepSpec::after(m1));
  const MessageId m3 = group[1].osend("m3", bytes(3), DepSpec::after(m2));
  scheduler.run();
  const auto ids = delivered_ids(group.log(2));
  EXPECT_EQ(ids, (std::vector<MessageId>{m1, m2, m3}));
  EXPECT_EQ(group[2].stats().held_back, 2u);  // m2 and m3 waited
  EXPECT_EQ(group[2].holdback_depth(), 0u);   // drained
}

TEST(OSend, DependencyOnNotYetSentMessageHolds) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 2);
  // Node 0 names a message that does not exist yet (sender 1, seq 1).
  const MessageId future{1, 1};
  group[0].osend("needs-future", bytes(9), DepSpec::after(future));
  env.run();
  EXPECT_EQ(group.log(1).size(), 0u);  // held everywhere
  EXPECT_EQ(group.log(0).size(), 0u);  // even at its own sender
  EXPECT_EQ(group[0].holdback_depth(), 1u);
  // Now the awaited message appears.
  group[1].osend("the-dep", bytes(1), DepSpec::none());
  env.run();
  EXPECT_EQ(group.log(0).size(), 2u);
  EXPECT_EQ(group.log(1).size(), 2u);
  EXPECT_EQ(group.log(1)[0].label(), "the-dep");
}

TEST(OSend, RawDuplicatesDroppedById) {
  SimEnv::Config config;
  config.duplicate_probability = 1.0;
  config.seed = 4;
  SimEnv env(config);
  Group<OSendMember> group(env.transport, 2);
  group[0].osend("m", bytes(1), DepSpec::none());
  env.run();
  EXPECT_EQ(group.log(1).size(), 1u);
  EXPECT_GE(group[1].stats().duplicates, 1u);
}

TEST(OSend, StabilityAdvancesWithPiggybackedKnowledge) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 3);
  const MessageId early = group[0].osend("early", bytes(1), DepSpec::none());
  env.run();
  // Everyone delivered it, but member 0 cannot yet KNOW that others did.
  EXPECT_FALSE(group[0].is_stable(early));
  // A second round of traffic piggybacks everyone's delivered prefixes.
  for (std::size_t i = 0; i < 3; ++i) {
    group[i].osend("ack-round", bytes(2), DepSpec::none());
  }
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(group[i].is_stable(early)) << "member " << i;
  }
}

TEST(OSend, WorksWithReliabilityOverLossyNetwork) {
  SimEnv::Config config;
  config.drop_probability = 0.3;
  config.jitter_us = 2000;
  config.seed = 21;
  SimEnv env(config);
  OSendMember::Options options;
  options.reliability = {.control_interval_us = 3000, .enabled = true};
  Group<OSendMember> group(env.transport, 3, options);
  std::vector<MessageId> chain;
  for (int i = 0; i < 10; ++i) {
    const std::size_t sender = static_cast<std::size_t>(i) % 3;
    DepSpec deps = chain.empty() ? DepSpec::none() : DepSpec::after(chain.back());
    chain.push_back(group[sender].osend("op" + std::to_string(i),
                                        bytes(static_cast<std::uint8_t>(i)),
                                        deps));
  }
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    // The chain is totally ordered by deps, so all logs equal the chain.
    EXPECT_EQ(delivered_ids(group.log(i)), chain) << "member " << i;
  }
}

TEST(OSend, DefaultMemberRetainsNoPerMessageHistory) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 3, OSendMember::Options{});
  std::vector<MessageId> last(3);  // FIFO chain: each names its previous
  for (int round = 0; round < 60; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      last[i] = group[i].osend("op", bytes(1), DepSpec::after(last[i]));
    }
    env.run();
  }
  const MessageId first{0, 1};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(group[i].stats().delivered, 180u) << "member " << i;
    EXPECT_TRUE(group[i].has_delivered(first)) << "member " << i;
    EXPECT_FALSE(group[i].has_delivered(MessageId{0, 1'000'000}))
        << "member " << i;
  }
}

TEST(OSend, DepOnDepartedSendersMessageStillSatisfied) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 3, OSendMember::Options{});
  MessageId departed_last;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      const MessageId sent = group[i].osend("op", bytes(1), DepSpec::none());
      if (i == 2) {
        departed_last = sent;
      }
    }
    env.run();
  }
  // Member 2 leaves; its delivered messages stay delivered at the rest.
  const GroupView survivors(2, {0, 1});
  group[0].install_view(survivors);
  group[1].install_view(survivors);
  const MessageId after_departed =
      group[0].osend("after", bytes(2), DepSpec::after(departed_last));
  env.run();
  EXPECT_EQ(group[0].holdback_depth(), 0u);
  EXPECT_EQ(group[1].holdback_depth(), 0u);
  EXPECT_TRUE(group[1].has_delivered(after_departed));
  EXPECT_EQ(group.log(1).back().id, after_departed);
}

// Property: a random causally-well-formed workload (every dependency names
// an already-delivered message at its sender) delivers at every member in
// some valid topological order of the closed graph.
class OSendRandomWorkload : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OSendRandomWorkload, EveryMemberDeliversAValidTopologicalOrder) {
  const std::uint64_t seed = GetParam();
  SimEnv::Config config;
  config.jitter_us = 4000;
  config.seed = seed;
  SimEnv env(config);
  const std::size_t n = 4;
  Group<OSendMember> group(env.transport, n);
  Rng rng(seed * 977 + 1);

  const int total = 30;
  for (int k = 0; k < total; ++k) {
    const std::size_t sender = rng.next_below(n);
    // Sender picks 0-3 dependencies from messages it has delivered.
    const auto& log = group.log(sender);
    DepSpec deps;
    if (!log.empty()) {
      const std::size_t count = rng.next_below(3);
      for (std::size_t d = 0; d < count; ++d) {
        deps.add(log[rng.next_below(log.size())].id);
      }
    }
    group[sender].osend("op" + std::to_string(k),
                        bytes(static_cast<std::uint8_t>(k)), deps);
    // Let the network make partial progress so logs diverge realistically.
    env.run_until(env.scheduler.now() + static_cast<SimTime>(rng.next_below(3000)));
  }
  env.run();

  std::vector<const testkit::Recorder*> recorders;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(group.log(i).size(), static_cast<std::size_t>(total));
    EXPECT_TRUE(group.graph(i).closed());
    EXPECT_TRUE(group.graph(i).is_valid_delivery_order(
        delivered_ids(group.log(i))))
        << "member " << i << " seed " << seed;
    EXPECT_EQ(group[i].holdback_depth(), 0u);
    recorders.push_back(&group.recorder(i));
  }
  EXPECT_TRUE(group.all_delivered_same_set());
  const ConsistencyVerdict verdict = check_causal_delivery(recorders);
  EXPECT_TRUE(verdict.consistent) << verdict.problem;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OSendRandomWorkload,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(CausalDeliveryOracle, RejectsAnOrderOrASetThatBreaksCausality) {
  const Delivery a = Delivery::synthetic({0, 1}, "a", DepSpec::none());
  const Delivery b = Delivery::synthetic({1, 1}, "b", DepSpec::after(a.id));
  using Recorders = std::vector<const testkit::Recorder*>;
  // b names a in its Occurs_After set, yet is delivered first.
  testkit::Recorder inverted;
  inverted.record(b);
  inverted.record(a);
  const ConsistencyVerdict order = check_causal_delivery(Recorders{&inverted});
  EXPECT_FALSE(order.consistent);
  EXPECT_NE(order.problem.find("not allowed by its dependency graph"),
            std::string::npos)
      << order.problem;
  // Each order is valid on its own; the two members' sets differ.
  testkit::Recorder both;
  testkit::Recorder only_a;
  both.record(a);
  both.record(b);
  only_a.record(a);
  const ConsistencyVerdict sets =
      check_causal_delivery(Recorders{&both, &only_a});
  EXPECT_FALSE(sets.consistent);
  EXPECT_NE(sets.problem.find("different message set"), std::string::npos)
      << sets.problem;
}

}  // namespace
}  // namespace cbc
