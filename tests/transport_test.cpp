// Tests for the transport layer: SimTransport and the ReliableEndpoint
// loss-recovery layer.
#include <gtest/gtest.h>

#include <set>

#include "common/sim_env.h"
#include "transport/reliable.h"
#include "util/serde.h"

namespace cbc {
namespace {

using testkit::SimEnv;

// ---------- SimTransport ----------

TEST(SimTransport, SendAndScheduleWork) {
  SimEnv env;
  std::vector<int> events;
  const NodeId a = env.transport.add_endpoint(
      [&](NodeId, const WireFrame&) { events.push_back(1); });
  const NodeId b = env.transport.add_endpoint(
      [&](NodeId from, const WireFrame& frame) {
        EXPECT_EQ(from, a);
        EXPECT_EQ(frame.bytes().size(), 3u);
        events.push_back(2);
      });
  env.transport.send(a, b, {1, 2, 3});
  env.transport.schedule(50, [&] { events.push_back(3); });
  env.run();
  // Timer at t=50 fires before delivery at t=1000.
  EXPECT_EQ(events, (std::vector<int>{3, 2}));
  EXPECT_EQ(env.transport.endpoint_count(), 2u);
  EXPECT_EQ(env.transport.now_us(), 1000);
}

// ---------- ReliableEndpoint over a lossy network ----------

struct ReliablePair {
  explicit ReliablePair(SimEnv::Config config,
                        ReliableEndpoint::Options options = {
                            .control_interval_us = 2000, .enabled = true})
      : env(config),
        alice(env.transport,
              [this](NodeId, const WireFrame& frame) {
                Reader reader(frame.bytes());
                alice_received.push_back(reader.u64());
              },
              options),
        bob(env.transport,
            [this](NodeId, const WireFrame& frame) {
              Reader reader(frame.bytes());
              bob_received.push_back(reader.u64());
            },
            options) {}

  static std::vector<std::uint8_t> payload(std::uint64_t value) {
    Writer writer;
    writer.u64(value);
    return writer.take();
  }

  SimEnv env;
  ReliableEndpoint alice;
  ReliableEndpoint bob;
  std::vector<std::uint64_t> alice_received;
  std::vector<std::uint64_t> bob_received;
};

TEST(Reliable, LossFreeDeliversInOrderWithoutRetransmission) {
  ReliablePair pair(SimEnv::Config{});
  for (std::uint64_t i = 0; i < 20; ++i) {
    pair.alice.send(pair.bob.id(), ReliablePair::payload(i));
  }
  pair.env.run();
  ASSERT_EQ(pair.bob_received.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(pair.bob_received[i], i);
  }
  EXPECT_EQ(pair.alice.stats().retransmissions, 0u);
}

TEST(Reliable, RecoversFromHeavyLoss) {
  SimEnv::Config config;
  config.fault_plan = "seed 5\nlink * * drop 0.4\n";
  config.seed = 5;
  ReliablePair pair(config);
  const std::uint64_t count = 100;
  for (std::uint64_t i = 0; i < count; ++i) {
    pair.alice.send(pair.bob.id(), ReliablePair::payload(i));
  }
  pair.env.run();
  // Every message delivered exactly once, despite 40% loss.
  ASSERT_EQ(pair.bob_received.size(), count);
  const std::set<std::uint64_t> unique(pair.bob_received.begin(),
                                       pair.bob_received.end());
  EXPECT_EQ(unique.size(), count);
  EXPECT_GT(pair.alice.stats().retransmissions, 0u);
  EXPECT_GT(pair.env.faults().drops, 0u);
}

TEST(Reliable, SenderTimerKeepsRetryingUnackedTail) {
  // 100% loss: the single message (and every retry) is dropped, but the
  // sender-side timer must keep retransmitting — the guarantee that a
  // dropped *tail* message is never abandoned. Retries back off
  // exponentially up to max_retransmit_interval_us, so give the run
  // enough simulated time to see several of them.
  SimEnv::Config config;
  config.fault_plan = "seed 6\nlink * * drop 1\n";
  config.seed = 6;
  ReliablePair pair(config);
  pair.alice.send(pair.bob.id(), ReliablePair::payload(7));
  pair.env.run_until(600000);
  EXPECT_TRUE(pair.bob_received.empty());
  EXPECT_GE(pair.alice.stats().retransmissions, 5u);
  EXPECT_EQ(pair.alice.stats().peer_unresponsive_events, 1u);
  EXPECT_GT(pair.env.scheduler.pending(), 0u);  // still trying
  EXPECT_GT(pair.env.faults().drops, 5u);
}

TEST(Reliable, AckCeilingWithholdsAcksUntilRaised) {
  // Checkpoint-retention contract: frames above the ceiling are still
  // delivered, but never acknowledged — the sender must retain (and keep
  // retrying) them until the ceiling rises past their seqs.
  ReliablePair pair(SimEnv::Config{});
  pair.bob.set_ack_ceiling(pair.alice.id(), 5);
  for (std::uint64_t i = 0; i < 10; ++i) {
    pair.alice.send(pair.bob.id(), ReliablePair::payload(i));
  }
  pair.env.run_until(200000);
  EXPECT_EQ(pair.bob_received.size(), 10u);  // delivery is not gated
  EXPECT_EQ(pair.alice.unacked_total(), 5u);
  EXPECT_GT(pair.alice.stats().retransmissions, 0u);
  EXPECT_GT(pair.bob.stats().duplicates_suppressed, 0u);
  // Raising the ceiling re-acks immediately; the sender drains and the
  // retained tail is released without any duplicate delivery upward.
  pair.bob.set_ack_ceiling(pair.alice.id(), 10);
  pair.env.run();
  EXPECT_EQ(pair.alice.unacked_total(), 0u);
  EXPECT_EQ(pair.bob_received.size(), 10u);
}

TEST(Reliable, SuppressesDuplicates) {
  SimEnv::Config config;
  config.fault_plan = "seed 8\nlink * * dup 1\n";
  config.seed = 8;
  ReliablePair pair(config);
  for (std::uint64_t i = 0; i < 10; ++i) {
    pair.alice.send(pair.bob.id(), ReliablePair::payload(i));
  }
  pair.env.run();
  EXPECT_EQ(pair.bob_received.size(), 10u);
  EXPECT_GT(pair.bob.stats().duplicates_suppressed, 0u);
  EXPECT_GT(pair.env.faults().duplicates, 0u);
}

TEST(Reliable, BidirectionalTrafficIndependent) {
  SimEnv::Config config;
  config.fault_plan = "seed 9\nlink * * drop 0.2\n";
  config.seed = 9;
  ReliablePair pair(config);
  for (std::uint64_t i = 0; i < 30; ++i) {
    pair.alice.send(pair.bob.id(), ReliablePair::payload(i));
    pair.bob.send(pair.alice.id(), ReliablePair::payload(1000 + i));
  }
  pair.env.run();
  EXPECT_EQ(pair.bob_received.size(), 30u);
  EXPECT_EQ(pair.alice_received.size(), 30u);
  EXPECT_GT(pair.env.faults().drops, 0u);
}

TEST(Reliable, PassThroughModeSendsRawBytes) {
  SimEnv env;
  std::vector<std::uint8_t> got;
  ReliableEndpoint a(env.transport, [](NodeId, const WireFrame&) {},
                     {.control_interval_us = 1000, .enabled = false});
  ReliableEndpoint b(
      env.transport,
      [&](NodeId, const WireFrame& frame) {
        got.assign(frame.bytes().begin(), frame.bytes().end());
      },
      {.control_interval_us = 1000, .enabled = false});
  a.send(b.id(), {42, 43});
  env.run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{42, 43}));  // no framing header
  EXPECT_EQ(env.network.stats().sent, 1u);              // no control frames
}

TEST(Reliable, QuiescesAfterRecovery) {
  SimEnv::Config config;
  config.fault_plan = "seed 10\nlink * * drop 0.3\n";
  config.seed = 10;
  ReliablePair pair(config);
  for (std::uint64_t i = 0; i < 50; ++i) {
    pair.alice.send(pair.bob.id(), ReliablePair::payload(i));
  }
  pair.env.run();  // must terminate: timers disarm once all acked
  EXPECT_EQ(pair.env.scheduler.pending(), 0u);
  EXPECT_EQ(pair.bob_received.size(), 50u);
  EXPECT_GT(pair.env.faults().drops, 0u);
}

TEST(Reliable, JitterReorderingToleratedWithoutRetransmitStorm) {
  SimEnv::Config config;
  config.jitter_us = 5000;
  config.seed = 11;
  ReliablePair pair(config);
  for (std::uint64_t i = 0; i < 40; ++i) {
    pair.alice.send(pair.bob.id(), ReliablePair::payload(i));
  }
  pair.env.run();
  EXPECT_EQ(pair.bob_received.size(), 40u);
  // Reordering alone may trigger some NACK scans but must not lose data.
  const std::set<std::uint64_t> unique(pair.bob_received.begin(),
                                       pair.bob_received.end());
  EXPECT_EQ(unique.size(), 40u);
}

}  // namespace
}  // namespace cbc
