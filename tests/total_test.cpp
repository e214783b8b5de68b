// Tests for the total-ordering layer: ASend (deterministic round merge)
// and the fixed-sequencer baseline.
#include <gtest/gtest.h>

#include <map>

#include "common/group_fixture.h"
#include "common/sim_env.h"
#include "obs/flight_recorder.h"
#include "total/asend.h"
#include "total/sequencer.h"
#include "util/rng.h"

namespace cbc {
namespace {

using testkit::Group;
using testkit::SimEnv;

std::vector<std::uint8_t> bytes(std::uint8_t v) { return {v}; }

// ---------- ASend ----------

TEST(ASend, SingleMessageDeliveredEverywhere) {
  SimEnv env;
  Group<ASendMember> group(env.transport, 3);
  const MessageId id = group[0].asend("m", bytes(1));
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(group.log(i).size(), 1u) << "member " << i;
    EXPECT_EQ(group.log(i)[0].id, id);
  }
}

TEST(ASend, IdenticalSequenceAtAllMembersUnderJitter) {
  // The whole point of eq. (5): "the sequence of state transitions is the
  // same at every member". Sweep seeds; any divergence is a failure.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 6000;
    config.seed = seed;
    SimEnv env(config);
    Group<ASendMember> group(env.transport, 4);
    Rng rng(seed);
    for (int k = 0; k < 25; ++k) {
      group[rng.next_below(4)].asend("m" + std::to_string(k), bytes(0));
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(3000)));
    }
    env.run();
    EXPECT_EQ(group.log(0).size(), 25u) << "seed " << seed;
    EXPECT_TRUE(group.all_delivered_same_sequence()) << "seed " << seed;
  }
}

TEST(ASend, ConcurrentSubmissionsMergedDeterministically) {
  // All members submit in the same round; delivery order within the round
  // is the deterministic (label, sender, seq) sort.
  SimEnv env;
  Group<ASendMember> group(env.transport, 3);
  group[2].asend("zeta", bytes(2));
  group[0].asend("alpha", bytes(0));
  group[1].asend("beta", bytes(1));
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(delivered_labels(group.log(i)),
              (std::vector<std::string>{"alpha", "beta", "zeta"}));
  }
}

TEST(ASend, SkipsLetSparseTrafficProgress) {
  // One member submits; the others contribute SKIPs; the round closes.
  SimEnv env;
  Group<ASendMember> group(env.transport, 5);
  group[3].asend("only", bytes(1));
  env.run();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(group.log(i).size(), 1u);
    EXPECT_EQ(group[i].current_round(), 1u);  // round 0 closed
    EXPECT_EQ(group[i].buffered_frames(), 0u);
  }
}

TEST(ASend, ManyRoundsFromOneSender) {
  SimEnv env;
  Group<ASendMember> group(env.transport, 3);
  for (int k = 0; k < 10; ++k) {
    group[0].asend("m" + std::to_string(k), bytes(static_cast<std::uint8_t>(k)));
  }
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(group.log(i).size(), 10u);
  }
  EXPECT_TRUE(group.all_delivered_same_sequence());
  // Messages from one sender occupy successive rounds, so they deliver in
  // submission order.
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(group.log(1)[static_cast<std::size_t>(k)].label(),
              "m" + std::to_string(k));
  }
}

TEST(ASend, StatsCountRealMessagesOnly) {
  SimEnv env;
  Group<ASendMember> group(env.transport, 4);
  group[0].asend("m", bytes(1));
  env.run();
  EXPECT_EQ(group[1].stats().delivered, 1u);  // skips are not deliveries
  EXPECT_EQ(group[0].stats().broadcasts, 1u);
}

TEST(ASend, DefaultMemberLogHoldsAtMostOneDelivery) {
  SimEnv env;
  Group<ASendMember> group(env.transport, 3, ASendMember::Options{});
  std::vector<std::size_t> seen(3, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    group[i].set_deliver([&seen, i](const Delivery&) { seen[i] += 1; });
  }
  for (int k = 0; k < 30; ++k) {
    group[static_cast<std::size_t>(k) % 3].asend("m" + std::to_string(k),
                                                 bytes(1));
    env.run();
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(seen[i], 30u) << "member " << i;
    EXPECT_EQ(group[i].stats().delivered, 30u) << "member " << i;
  }
}

TEST(ASend, FlightRingJournalsSubmitEncodeAndEveryDelivery) {
  // Total-order postmortems and --trace deliver spans need the same
  // per-envelope stages OSend journals.
  obs::FlightRecorder ring(obs::FlightRecorder::Options{});
  obs::install_flight_recorder(&ring);
  SimEnv env;
  Group<ASendMember> group(env.transport, 3);
  std::vector<MessageId> ids;
  for (std::uint8_t k = 0; k < 6; ++k) {
    ids.push_back(group[k % 3].asend("m" + std::to_string(k), bytes(k)));
  }
  env.run();
  ASSERT_EQ(group.log(0).size(), ids.size());

  std::map<obs::FlightEvent, std::map<MessageId, int>> seen;
  for (const obs::FlightRecord& record :
       obs::decode_flight_dump(ring.snapshot_bytes()).records) {
    seen[record.event][record.id] += 1;
  }
  EXPECT_EQ(seen[obs::FlightEvent::kSubmit].size(), ids.size());
  EXPECT_EQ(seen[obs::FlightEvent::kDeliver].size(), ids.size());
  for (const MessageId& id : ids) {
    EXPECT_EQ(seen[obs::FlightEvent::kSubmit][id], 1) << id.to_string();
    EXPECT_EQ(seen[obs::FlightEvent::kEncode][id], 1) << id.to_string();
    // One deliver per (message, member).
    EXPECT_EQ(seen[obs::FlightEvent::kDeliver][id], 3) << id.to_string();
  }
}

TEST(ASend, TwoGroupSizesParameterized) {
  for (const std::size_t n : {2u, 3u, 6u, 9u}) {
    SimEnv::Config config;
    config.jitter_us = 2000;
    config.seed = n;
    SimEnv env(config);
    Group<ASendMember> group(env.transport, n);
    for (std::size_t i = 0; i < n; ++i) {
      group[i].asend("m" + std::to_string(i), bytes(0));
    }
    env.run();
    EXPECT_TRUE(group.all_delivered_same_sequence()) << "n=" << n;
    EXPECT_EQ(group.log(0).size(), n) << "n=" << n;
  }
}

// ---------- Sequencer ----------

TEST(Sequencer, MemberZeroIsSequencer) {
  SimEnv env;
  Group<SequencerMember> group(env.transport, 3);
  EXPECT_TRUE(group[0].is_sequencer());
  EXPECT_FALSE(group[1].is_sequencer());
}

TEST(Sequencer, IdenticalSequenceAtAllMembersUnderJitter) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 6000;
    config.seed = seed;
    SimEnv env(config);
    Group<SequencerMember> group(env.transport, 4);
    Rng rng(seed + 99);
    for (int k = 0; k < 25; ++k) {
      group[rng.next_below(4)].broadcast("m" + std::to_string(k), bytes(0),
                                         DepSpec::none());
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(3000)));
    }
    env.run();
    EXPECT_EQ(group[0].log().size(), 25u) << "seed " << seed;
    EXPECT_TRUE(group.all_delivered_same_sequence()) << "seed " << seed;
  }
}

TEST(Sequencer, SequencerLocalSubmissionOrderedImmediately) {
  SimEnv env;
  Group<SequencerMember> group(env.transport, 2);
  group[0].broadcast("a", bytes(1), DepSpec::none());
  // The sequencer applies its own stamp and delivers locally at once.
  EXPECT_EQ(group[0].log().size(), 1u);
  env.run();
  EXPECT_EQ(group[1].log().size(), 1u);
}

TEST(Sequencer, LatencyShapes_SequencerTwoHopsAsendOneHopWhenDense) {
  SimEnv env;  // fixed 1000us per hop
  Group<SequencerMember> group(env.transport, 3);
  group[1].broadcast("m", bytes(1), DepSpec::none());
  env.run();
  // request hop (1 -> 0) + order hop (0 -> 2): member 2 delivers at 2000.
  ASSERT_EQ(group[2].log().size(), 1u);
  EXPECT_EQ(group[2].log()[0].delivered_at, 2000);

  // ASend with a *dense* round (every member submits, as in the lock
  // protocol) completes in ONE hop: each member holds all N frames after
  // a single broadcast crossing.
  SimEnv env2;
  Group<ASendMember> group2(env2.transport, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    group2[i].asend("m" + std::to_string(i), bytes(1));
  }
  env2.run();
  ASSERT_EQ(group2.log(2).size(), 3u);
  EXPECT_EQ(group2.log(2)[0].delivered_at, 1000);

  // With a *sparse* round the skip exchange costs one extra hop (2 total):
  // the structural trade-off §5.2 alludes to for large/quiet groups.
  SimEnv env3;
  Group<ASendMember> group3(env3.transport, 3);
  group3[1].asend("m", bytes(1));
  env3.run();
  ASSERT_EQ(group3.log(2).size(), 1u);
  EXPECT_EQ(group3.log(2)[0].delivered_at, 2000);
}

TEST(Sequencer, ASendAndSequencerAgreeOnSetNotNecessarilyOrder) {
  SimEnv::Config config;
  config.jitter_us = 2000;
  config.seed = 12;
  SimEnv env(config);
  Group<SequencerMember> group(env.transport, 3);
  for (int k = 0; k < 9; ++k) {
    group[static_cast<std::size_t>(k) % 3].broadcast(
        "m" + std::to_string(k), bytes(0), DepSpec::none());
  }
  env.run();
  EXPECT_TRUE(group.all_delivered_same_set());
  EXPECT_TRUE(group.all_delivered_same_sequence());
}

}  // namespace
}  // namespace cbc
