// Failure-injection and robustness tests: malformed frames, partitions
// with healing, combined fault envelopes on every ordering discipline.
#include <gtest/gtest.h>

#include "apps/counter.h"
#include "causal/flush.h"
#include "causal/osend.h"
#include "causal/vc_causal.h"
#include "common/group_fixture.h"
#include "common/sim_env.h"
#include "replica/replica_group.h"
#include "total/asend.h"
#include "total/sequencer.h"
#include "util/rng.h"

namespace cbc {
namespace {

using testkit::Group;
using testkit::SimEnv;

// ---------- Malformed wire frames ----------

TEST(Robustness, GarbageFrameAtOSendEndpointDroppedAndCounted) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 2);
  // Inject a raw garbage frame directly at member 1's endpoint by sending
  // from member 0's transport id without going through the protocol. A
  // datagram network delivers such frames for real, so the member must
  // drop and count them — never abort (see OrderingStats::malformed).
  env.transport.send(0, 1, {0xDE, 0xAD});
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(group[1].stats().malformed, 1u);
  // The member still works after the bad frame.
  group[0].broadcast("after", {}, DepSpec::none());
  env.run();
  EXPECT_EQ(group[1].stats().delivered, 1u);
}

TEST(Robustness, TruncatedFrameDroppedAndCounted) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 2);
  // A valid-looking prefix (view id + message id) then truncation
  // mid-label.
  Writer writer;
  writer.u64(1);  // view id
  VectorClock(2).encode(writer);  // delivered-prefix prelude
  MessageId{0, 1}.encode(writer);
  writer.u32(1000);  // label length much larger than remaining bytes
  env.transport.send(0, 1, writer.take());
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(group[1].stats().malformed, 1u);
  EXPECT_EQ(group[1].stats().delivered, 0u);
}

TEST(Robustness, ForeignSenderIsBufferedNotFatal) {
  // A frame from an endpoint outside the view must not crash the member —
  // it is buffered for a potential future view (see flush protocol).
  SimEnv env;
  const GroupView view = testkit::make_view(2);
  testkit::Recorder recorded_b;
  OSendMember a(env.transport, view, [](const Delivery&) {});
  OSendMember b(env.transport, view, recorded_b.tap());
  // A third endpoint, not in the view, sends a well-formed OSend frame.
  const NodeId outsider = env.transport.add_endpoint(
      [](NodeId, const WireFrame&) {});
  Writer frame;
  frame.u64(1);  // same view id, but the sender is not a member
  VectorClock(2).encode(frame);
  MessageId{outsider, 1}.encode(frame);
  frame.str("intruder");
  DepSpec::none().encode(frame);
  frame.i64(0);
  frame.blob({});
  env.transport.send(outsider, b.id(), frame.take());
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(recorded_b.log().size(), 0u);  // not delivered, just buffered
}

TEST(Robustness, UnknownSequencerFrameTypeIsProtocolViolation) {
  SimEnv env;
  Group<SequencerMember> group(env.transport, 2);
  env.transport.send(0, 1, {99});  // bogus frame type
  EXPECT_THROW(env.run(), ProtocolViolation);
}

TEST(Robustness, RequestAtNonSequencerIsProtocolViolation) {
  SimEnv env;
  Group<SequencerMember> group(env.transport, 3);
  // Hand-craft a kRequest frame and deliver it to member 2 (not the
  // sequencer).
  Writer writer;
  writer.u8(1);  // FrameType::kRequest
  MessageId{1, 1}.encode(writer);
  writer.str("m");
  DepSpec::none().encode(writer);
  writer.i64(0);
  writer.blob({});
  env.transport.send(1, 2, writer.take());
  EXPECT_THROW(env.run(), ProtocolViolation);
}

// ---------- Partitions and healing ----------

TEST(Robustness, ReplicaGroupConvergesAfterPartitionHeals) {
  SimEnv::Config config;
  config.jitter_us = 1000;
  config.seed = 3;
  SimEnv env(config);
  typename ReplicaNode<apps::Counter>::Options options;
  options.member.reliability = {.control_interval_us = 3000, .enabled = true};
  ReplicaGroup<apps::Counter> group(env.transport, 4, apps::Counter::spec(),
                                    options);

  // Healthy traffic first.
  group.node(0).submit(apps::Counter::inc(1));
  env.run();

  // Partition {0,1} | {2,3}; both sides keep writing.
  env.network.set_partitions({{0, 1}, {2, 3}});
  group.node(0).submit(apps::Counter::inc(10));
  group.node(3).submit(apps::Counter::inc(100));
  env.run_until(env.scheduler.now() + 30000);
  // Sides have diverged: each saw only its own partition's writes.
  EXPECT_EQ(group.node(1).state().value(), 11);
  EXPECT_EQ(group.node(2).state().value(), 101);

  // Heal; the reliability layer's retransmit timers re-deliver everything.
  env.network.heal();
  env.run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(group.node(i).state().value(), 111) << "member " << i;
  }
  EXPECT_TRUE(group.states_agree());
}

TEST(Robustness, AsendTotalOrderSurvivesPartitionHeal) {
  SimEnv::Config config;
  config.seed = 5;
  SimEnv env(config);
  ASendMember::Options options;
  options.reliability = {.control_interval_us = 3000, .enabled = true};
  Group<ASendMember> group(env.transport, 3, options);

  group[0].asend("before", {});
  env.run();
  env.network.set_partitions({{0}, {1, 2}});
  group[1].asend("during", {});  // cannot complete its round yet
  env.run_until(env.scheduler.now() + 20000);
  EXPECT_EQ(group.log(1).size(), 1u);  // only "before" delivered
  env.network.heal();
  env.run();
  // After healing, the round completes identically everywhere.
  EXPECT_EQ(group.log(0).size(), 2u);
  EXPECT_TRUE(group.all_delivered_same_sequence());
}

// ---------- Combined fault envelope, every discipline ----------

template <typename MemberT>
void hostile_run(std::uint64_t seed) {
  SimEnv::Config config;
  config.jitter_us = 3000;
  config.drop_probability = 0.2;
  config.duplicate_probability = 0.1;
  config.seed = seed;
  SimEnv env(config);
  typename MemberT::Options options{};
  options.reliability = {.control_interval_us = 3000, .enabled = true};
  Group<MemberT> group(env.transport, 3, options);
  Rng rng(seed);
  const int total = 30;
  for (int k = 0; k < total; ++k) {
    group[rng.next_below(3)].broadcast("m" + std::to_string(k), {},
                                       DepSpec::none());
    env.run_until(env.scheduler.now() +
                  static_cast<SimTime>(rng.next_below(2000)));
  }
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(group.log(i).size(), static_cast<std::size_t>(total))
        << "seed " << seed;
  }
  EXPECT_TRUE(group.all_delivered_same_set()) << "seed " << seed;
}

class HostileNetwork : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HostileNetwork, OSendDeliversEverything) {
  hostile_run<OSendMember>(GetParam());
}
TEST_P(HostileNetwork, VcCausalDeliversEverything) {
  hostile_run<VcCausalMember>(GetParam());
}
TEST_P(HostileNetwork, ASendDeliversEverythingInTotalOrder) {
  SimEnv::Config config;
  config.jitter_us = 3000;
  config.drop_probability = 0.2;
  config.duplicate_probability = 0.1;
  config.seed = GetParam();
  SimEnv env(config);
  ASendMember::Options options;
  options.reliability = {.control_interval_us = 3000, .enabled = true};
  Group<ASendMember> group(env.transport, 3, options);
  Rng rng(GetParam());
  for (int k = 0; k < 30; ++k) {
    group[rng.next_below(3)].asend("m" + std::to_string(k), {});
    env.run_until(env.scheduler.now() +
                  static_cast<SimTime>(rng.next_below(2000)));
  }
  env.run();
  EXPECT_EQ(group.log(0).size(), 30u);
  EXPECT_TRUE(group.all_delivered_same_sequence());
}

TEST_P(HostileNetwork, SequencerDeliversEverythingInTotalOrder) {
  SimEnv::Config config;
  config.jitter_us = 3000;
  config.drop_probability = 0.2;
  config.duplicate_probability = 0.1;
  config.seed = GetParam();
  SimEnv env(config);
  SequencerMember::Options options;
  options.reliability = {.control_interval_us = 3000, .enabled = true};
  Group<SequencerMember> group(env.transport, 3, options);
  Rng rng(GetParam());
  for (int k = 0; k < 30; ++k) {
    group[rng.next_below(3)].broadcast("m" + std::to_string(k), {},
                                       DepSpec::none());
    env.run_until(env.scheduler.now() +
                  static_cast<SimTime>(rng.next_below(2000)));
  }
  env.run();
  EXPECT_EQ(group[0].log().size(), 30u);
  EXPECT_TRUE(group.all_delivered_same_sequence());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostileNetwork,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---------- Conflicting view proposals ----------

TEST(Robustness, ConflictingConcurrentProposalsRaiseProtocolViolation) {
  SimEnv env;
  const GroupView view1 = testkit::make_view(3);
  std::vector<std::unique_ptr<FlushCoordinator>> members;
  for (int i = 0; i < 3; ++i) {
    members.push_back(std::make_unique<FlushCoordinator>(
        env.transport, view1, [](const Delivery&) {}, nullptr));
  }
  // Two different authorities propose DIFFERENT successor views at once —
  // the single-membership-authority assumption is violated and must be
  // surfaced, not silently resolved.
  members[0]->propose(GroupView(2, {0, 1}));
  members[1]->propose(GroupView(2, {0, 1, 2}));
  EXPECT_THROW(env.run(), ProtocolViolation);
}

TEST(Robustness, DuplicateIdenticalProposalIsHarmless) {
  SimEnv env;
  const GroupView view1 = testkit::make_view(2);
  std::vector<std::unique_ptr<FlushCoordinator>> members;
  std::vector<int> installs(2, 0);
  for (int i = 0; i < 2; ++i) {
    members.push_back(std::make_unique<FlushCoordinator>(
        env.transport, view1, [](const Delivery&) {},
        [&installs, i](const GroupView&) { ++installs[i]; }));
  }
  const GroupView view2(2, {0, 1});
  members[0]->propose(view2);
  members[1]->propose(view2);  // same view: benign duplicate
  env.run();
  EXPECT_EQ(installs, (std::vector<int>{1, 1}));
  EXPECT_EQ(members[0]->view().id(), 2u);
}

// ---------- Serde fuzzing ----------

TEST(Robustness, RandomBytesNeverCrashDecoders) {
  Rng rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(64));
    for (auto& byte : bytes) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    Reader reader(bytes);
    // Any structured decode either succeeds or throws SerdeError /
    // InvalidArgument — never UB or other exception types.
    try {
      (void)MessageId::decode(reader);
      (void)DepSpec::decode(reader);
      (void)VectorClock::decode(reader);
      (void)reader.str();
      (void)reader.blob();
    } catch (const InvalidArgument&) {
      // expected failure mode (SerdeError derives from InvalidArgument)
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace cbc
