// Failure-injection and robustness tests: malformed frames, partition
// windows that close, combined fault plans on every ordering discipline.
#include <gtest/gtest.h>

#include "apps/counter.h"
#include "causal/osend.h"
#include "causal/vc_causal.h"
#include "common/group_fixture.h"
#include "common/osend_frame.h"
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
  // A valid-looking prefix (message id) then truncation mid-label: the
  // label's length runs past the remaining bytes.
  std::vector<std::uint8_t> frame =
      testkit::osend_frame(MessageId{0, 1}, std::string(1000, 'x'));
  frame.resize(frame.size() - 900);
  env.transport.send(0, 1, std::move(frame));
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(group[1].stats().malformed, 1u);
  EXPECT_EQ(group[1].stats().delivered, 0u);
}

TEST(Robustness, ForeignSenderIsCountedMalformed) {
  // The group is fixed, so a frame from an endpoint outside the view is
  // dropped and counted like a forged sender — never delivered, never
  // kept, never fatal.
  SimEnv env;
  const GroupView view = testkit::make_view(2);
  testkit::Recorder recorded_b;
  OSendMember a(env.transport, view, [](const Delivery&) {});
  OSendMember b(env.transport, view, recorded_b.tap());
  // A third endpoint, not in the view, sends a well-formed OSend frame.
  const NodeId outsider = env.transport.add_endpoint(
      [](NodeId, const WireFrame&) {});
  const std::vector<std::uint8_t> frame =
      testkit::osend_frame(MessageId{outsider, 1}, "intruder");
  env.transport.send(outsider, b.id(), frame);
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(b.stats().malformed, 1u);
  EXPECT_EQ(b.stats().received, 0u);
  EXPECT_EQ(b.holdback_depth(), 0u);
  EXPECT_EQ(recorded_b.log().size(), 0u);
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
  // {0,1} | {2,3} during [50 ms, 80 ms): both sides write inside the
  // window, diverge, and converge once it closes.
  SimEnv::Config config;
  config.jitter_us = 1000;
  config.fault_plan = "seed 3\npartition 50000 30000 0,1|2,3\n";
  config.seed = 3;
  SimEnv env(config);
  typename ReplicaNode<apps::Counter>::Options options;
  options.member.reliability = {.control_interval_us = 3000, .enabled = true};
  ReplicaGroup<apps::Counter> group(env.transport, 4, apps::Counter::spec(),
                                    options);

  // Healthy traffic first.
  group.node(0).submit(apps::Counter::inc(1));
  env.run_until(50000);
  EXPECT_EQ(group.node(3).state().value(), 1);

  // Both sides write inside the window.
  group.node(0).submit(apps::Counter::inc(10));
  group.node(3).submit(apps::Counter::inc(100));
  env.run_until(80000);
  // Sides have diverged: each saw only its own partition's writes.
  EXPECT_EQ(group.node(1).state().value(), 11);
  EXPECT_EQ(group.node(2).state().value(), 101);

  // The window closed; the reliability layer's retransmit timers
  // re-deliver everything.
  env.run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(group.node(i).state().value(), 111) << "member " << i;
  }
  EXPECT_TRUE(group.states_agree());
  EXPECT_GT(env.faults().partition_drops, 0u);
}

TEST(Robustness, AsendTotalOrderSurvivesPartitionHeal) {
  // {0} | {1,2} during [50 ms, 70 ms): a round started inside the window
  // cannot complete until it closes.
  SimEnv::Config config;
  config.fault_plan = "seed 5\npartition 50000 20000 0|1,2\n";
  config.seed = 5;
  SimEnv env(config);
  ASendMember::Options options;
  options.reliability = {.control_interval_us = 3000, .enabled = true};
  Group<ASendMember> group(env.transport, 3, options);

  group[0].asend("before", {});
  env.run_until(50000);
  EXPECT_EQ(group.log(1).size(), 1u);
  group[1].asend("during", {});  // cannot complete its round yet
  env.run_until(70000);
  EXPECT_EQ(group.log(1).size(), 1u);  // only "before" delivered
  env.run();
  // After healing, the round completes identically everywhere.
  EXPECT_EQ(group.log(0).size(), 2u);
  EXPECT_TRUE(group.all_delivered_same_sequence());
  EXPECT_GT(env.faults().partition_drops, 0u);
}

// ---------- Combined fault envelope, every discipline ----------

/// 3 ms jitter plus 20% loss and 10% duplication on every link, drawn
/// from `seed`.
SimEnv::Config hostile_config(std::uint64_t seed) {
  SimEnv::Config config;
  config.jitter_us = 3000;
  config.fault_plan =
      "seed " + std::to_string(seed) + "\nlink * * drop 0.2 dup 0.1\n";
  config.seed = seed;
  return config;
}

void expect_losses_and_duplicates(const SimEnv& env, std::uint64_t seed) {
  EXPECT_GT(env.faults().drops, 0u) << "seed " << seed;
  EXPECT_GT(env.faults().duplicates, 0u) << "seed " << seed;
}

template <typename MemberT>
void hostile_run(std::uint64_t seed) {
  SimEnv env(hostile_config(seed));
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
  expect_losses_and_duplicates(env, seed);
}

class HostileNetwork : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HostileNetwork, OSendDeliversEverything) {
  hostile_run<OSendMember>(GetParam());
}
TEST_P(HostileNetwork, VcCausalDeliversEverything) {
  hostile_run<VcCausalMember>(GetParam());
}
TEST_P(HostileNetwork, ASendDeliversEverythingInTotalOrder) {
  SimEnv env(hostile_config(GetParam()));
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
  expect_losses_and_duplicates(env, GetParam());
}

TEST_P(HostileNetwork, SequencerDeliversEverythingInTotalOrder) {
  SimEnv env(hostile_config(GetParam()));
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
  expect_losses_and_duplicates(env, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostileNetwork,
                         ::testing::Range<std::uint64_t>(1, 7));

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
