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
  SimEnv::Config config;
  // node0 -> node2 takes 50 ms instead of 1 ms.
  config.fault_plan = "seed 1\nlink 0 2 delay 49000 49000\n";
  config.seed = 1;
  SimEnv env(config);
  Group<OSendMember> group(env.transport, 3);
  const MessageId m1 = group[0].osend("m1", bytes(1), DepSpec::none());
  const MessageId m2 = group[1].osend("m2", bytes(2), DepSpec::after(m1));
  const MessageId m3 = group[1].osend("m3", bytes(3), DepSpec::after(m2));
  env.run();
  const auto ids = delivered_ids(group.log(2));
  EXPECT_EQ(ids, (std::vector<MessageId>{m1, m2, m3}));
  EXPECT_EQ(group[2].stats().held_back, 2u);  // m2 and m3 waited
  EXPECT_EQ(group[2].holdback_depth(), 0u);   // drained
  EXPECT_EQ(env.faults().delays, 1u);         // m1's frame to node2
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
  config.fault_plan = "seed 4\nlink * * dup 1\n";
  config.seed = 4;
  SimEnv env(config);
  Group<OSendMember> group(env.transport, 2);
  group[0].osend("m", bytes(1), DepSpec::none());
  env.run();
  EXPECT_EQ(group.log(1).size(), 1u);
  EXPECT_GE(group[1].stats().duplicates, 1u);
  EXPECT_GT(env.faults().duplicates, 0u);
}

TEST(OSend, FrameBytesDoNotGrowWithGroupSize) {
  // A frame is the envelope section alone, with its Occurs_After set;
  // nothing in it is sized by the group. The message is F1's write
  // (bench_fig1_broadcast).
  auto bytes_per_unicast = [](std::size_t group_size) {
    SimEnv env;
    Group<OSendMember> group(env.transport, group_size);
    group[0].osend("write(VAL)", std::vector<std::uint8_t>(8), DepSpec::none());
    env.run();
    EXPECT_EQ(env.network.stats().sent, group_size - 1);
    return env.network.stats().bytes / env.network.stats().sent;
  };
  EXPECT_EQ(bytes_per_unicast(2), bytes_per_unicast(32));
  // id 12 + label 4+10 + deps 4 + sent_at 8 + payload 4+8: no prelude.
  EXPECT_EQ(bytes_per_unicast(2), 50u);
}

TEST(OSend, WorksWithReliabilityOverLossyNetwork) {
  SimEnv::Config config;
  config.jitter_us = 2000;
  config.fault_plan = "seed 21\nlink * * drop 0.3\n";
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
  EXPECT_GT(env.faults().drops, 0u);
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

TEST(OSend, AdoptedBaselineReleasesWhatItCoversAndRenumbersOwnSends) {
  // Member 2 adopts a baseline saying sender 1's first 3 messages and its
  // own first 4 are delivered (a recovered member's checkpoint
  // frontier). Sender 0's two messages wait on sender 1's seq 1 and seq 5,
  // neither of which member 2 ever receives.
  SimEnv env;
  Group<OSendMember> group(env.transport, 3);
  const MessageId below =
      group[0].osend("below", bytes(1), DepSpec::after(MessageId{1, 1}));
  const MessageId above =
      group[0].osend("above", bytes(2), DepSpec::after(MessageId{1, 5}));
  env.run();
  ASSERT_EQ(group[2].holdback_depth(), 2u);
  ASSERT_TRUE(group.log(2).empty());

  VectorClock baseline(3);
  baseline.set(1, 3);
  baseline.set(2, 4);
  group[2].adopt_baseline(baseline);
  // A message held on a dep at or below the baseline is delivered...
  EXPECT_EQ(delivered_ids(group.log(2)), std::vector<MessageId>{below});
  EXPECT_TRUE(group[2].has_delivered(MessageId{1, 3}));
  // ...one held on a dep above it stays held...
  EXPECT_EQ(group[2].holdback_depth(), 1u);
  EXPECT_FALSE(group[2].has_delivered(above));
  // ...and the member's own numbering resumes past its baseline entry.
  EXPECT_EQ(group[2].osend("next", bytes(3), DepSpec::none()),
            (MessageId{2, 5}));
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
