// Protocol-stack tests: OrderingStats counter semantics across every
// ordering discipline under adversarial transport, the zero-copy
// regression guard on the envelope message path, and the send-side
// batching transport decorator.
#include <gtest/gtest.h>


#include "causal/osend.h"
#include "causal/vc_causal.h"
#include "common/group_fixture.h"
#include "common/sim_env.h"
#include "total/asend.h"
#include "total/sequencer.h"
#include "transport/batching.h"
#include "util/buffer.h"
#include "util/serde.h"

namespace cbc {
namespace {

using testkit::Group;
using testkit::SimEnv;

// ---------- OrderingStats under reordering + duplication ----------

// Drives a 3-member group of the given discipline through a duplicated,
// jittered network and returns the members for counter assertions.
template <typename MemberT>
struct HostileStatsRun {
  HostileStatsRun()
      : env(SimEnv::Config{.jitter_us = 4000,
                           .fault_plan = "seed 21\nlink * * dup 0.5\n",
                           .seed = 21}),
        group(env.transport, 3) {
    MessageId prev = MessageId::null();
    for (int k = 0; k < 24; ++k) {
      // Chained dependencies: under jitter a successor regularly lands
      // before its dependency, exercising the hold-back queue in the
      // causal disciplines (total disciplines ignore `deps`).
      const MessageId id = group[static_cast<std::size_t>(k) % 3].broadcast(
          "m" + std::to_string(k), {},
          prev.is_null() ? DepSpec::none() : DepSpec::after(prev));
      prev = id;
      env.run_until(env.scheduler.now() + 500);
    }
    env.run();
  }

  [[nodiscard]] std::uint64_t total(
      std::uint64_t OrderingStats::*field) const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      sum += group[i].stats().*field;
    }
    return sum;
  }

  SimEnv env;
  mutable Group<MemberT> group;
};

template <typename MemberT>
void expect_counters_converged(HostileStatsRun<MemberT>& run) {
  // Every member delivered all 24 messages exactly once.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(run.group.log(i).size(), 24u) << "member " << i;
    EXPECT_EQ(run.group[i].stats().delivered, 24u) << "member " << i;
    EXPECT_EQ(run.group[i].stats().broadcasts, 8u) << "member " << i;
  }
  EXPECT_TRUE(run.group.all_delivered_same_set());
  // 50% duplication must surface in the duplicate counter somewhere.
  EXPECT_GT(run.env.faults().duplicates, 0u);
  EXPECT_GT(run.total(&OrderingStats::duplicates), 0u);
}

TEST(OrderingStatsCounters, OSendCountsDuplicatesAndHoldback) {
  HostileStatsRun<OSendMember> run;
  expect_counters_converged(run);
  // The chained dependency under 4ms jitter must have held something back.
  EXPECT_GT(run.total(&OrderingStats::held_back), 0u);
  EXPECT_GT(run.total(&OrderingStats::max_holdback_depth), 0u);
}

TEST(OrderingStatsCounters, VcCausalCountsDuplicatesAndHoldback) {
  HostileStatsRun<VcCausalMember> run;
  expect_counters_converged(run);
  EXPECT_GT(run.total(&OrderingStats::held_back), 0u);
  EXPECT_GT(run.total(&OrderingStats::max_holdback_depth), 0u);
}

TEST(OrderingStatsCounters, ASendCountsDuplicates) {
  HostileStatsRun<ASendMember> run;
  expect_counters_converged(run);
  EXPECT_TRUE(run.group.all_delivered_same_sequence());
}

TEST(OrderingStatsCounters, SequencerCountsDuplicatesAndHoldback) {
  // The raw sequencer protocol cannot deduplicate REQUEST frames (a
  // duplicated request is re-stamped — the reliability layer owns wire
  // dedup), so this run uses jitter only and injects the duplicate
  // ordered frame by hand.
  SimEnv env(SimEnv::Config{.jitter_us = 4000, .seed = 21});
  Group<SequencerMember> group(env.transport, 3);
  for (int k = 0; k < 24; ++k) {
    group[static_cast<std::size_t>(k) % 3].broadcast(
        "m" + std::to_string(k), {}, DepSpec::none());
    env.run_until(env.scheduler.now() + 500);
  }
  env.run();
  std::uint64_t max_depth = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(group[i].log().size(), 24u) << "member " << i;
    max_depth = std::max(max_depth, group[i].stats().max_holdback_depth);
  }
  EXPECT_TRUE(group.all_delivered_same_sequence());
  // Jittered ordered frames arrive out of stamp order at some member.
  EXPECT_GT(max_depth, 0u);

  // Replay an already-delivered ordered frame (stamp 1) at member 1: it
  // must be dropped and counted, not re-delivered.
  Writer writer;
  writer.u8(2);  // FrameType::kOrdered
  writer.u64(1);
  Envelope::encode_section(writer, MessageId{0, 1}, "m0", DepSpec::none(),
                           0, {});
  env.transport.send(0, 1, writer.take());
  env.run();
  EXPECT_EQ(group[1].log().size(), 24u);
  EXPECT_EQ(group[1].stats().duplicates, 1u);
}

// ---------- Zero-copy regression guard ----------

TEST(ZeroCopy, OSendPathNeverCopiesBuffers) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 3);
  const std::vector<std::uint8_t> payload(256, 0x5C);

  Buffer::reset_copy_count();
  MessageId prev = MessageId::null();
  for (int k = 0; k < 16; ++k) {
    prev = group[static_cast<std::size_t>(k) % 3].broadcast(
        "op" + std::to_string(k), payload,
        prev.is_null() ? DepSpec::none() : DepSpec::after(prev));
  }
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(group.log(i).size(), 16u);
  }
  // One encode per broadcast; the frame is then SHARED across every
  // destination, self-delivery, the hold-back queue, and the log — the
  // instrumented Buffer must never see a copy.
  EXPECT_EQ(Buffer::copy_count(), 0u);
}

TEST(ZeroCopy, DeliveredPayloadAliasesWireFrame) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 2);
  group[0].broadcast("op", std::vector<std::uint8_t>(64, 0xEE),
                     DepSpec::none());
  env.run();
  ASSERT_EQ(group.log(1).size(), 1u);
  const Delivery& delivery = group.log(1)[0];
  const SharedBuffer& frame = delivery.envelope().frame();
  ASSERT_NE(frame, nullptr);
  const auto payload = delivery.payload();
  ASSERT_EQ(payload.size(), 64u);
  // The payload span points INTO the wire frame, not at a copy.
  EXPECT_GE(payload.data(), frame->data());
  EXPECT_LE(payload.data() + payload.size(), frame->data() + frame->size());
}

TEST(ZeroCopy, SequencerReframeIsTheOnlyCopylikeStep) {
  SimEnv env;
  Group<SequencerMember> group(env.transport, 3);
  Buffer::reset_copy_count();
  for (int k = 0; k < 8; ++k) {
    group[static_cast<std::size_t>(k) % 3].broadcast(
        "op" + std::to_string(k), std::vector<std::uint8_t>(32, 1),
        DepSpec::none());
  }
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(group[i].log().size(), 8u);
  }
  // The request→ordered splice goes through Writer::raw (a byte append,
  // not a Buffer copy): the instrumented counter still reads zero.
  EXPECT_EQ(Buffer::copy_count(), 0u);
}

// ---------- BatchingTransport ----------

struct BatchFixture {
  explicit BatchFixture(BatchingTransport::Options options)
      : batching(env.transport, options) {
    a = batching.add_endpoint([this](NodeId from, const WireFrame& frame) {
      a_received.emplace_back(from, std::vector<std::uint8_t>(
                                        frame.bytes().begin(),
                                        frame.bytes().end()));
    });
    b = batching.add_endpoint([this](NodeId from, const WireFrame& frame) {
      b_received.emplace_back(from, std::vector<std::uint8_t>(
                                        frame.bytes().begin(),
                                        frame.bytes().end()));
    });
  }

  SimEnv env;
  BatchingTransport batching;
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> a_received;
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> b_received;
};

TEST(Batching, FullBatchFlushesWithoutTimer) {
  BatchFixture fx(BatchingTransport::Options{.max_batch = 4});
  for (std::uint8_t k = 0; k < 4; ++k) {
    fx.batching.send(fx.a, fx.b, std::vector<std::uint8_t>{k, k});
  }
  fx.env.run();
  ASSERT_EQ(fx.b_received.size(), 4u);
  for (std::uint8_t k = 0; k < 4; ++k) {
    EXPECT_EQ(fx.b_received[k].first, fx.a);
    EXPECT_EQ(fx.b_received[k].second, (std::vector<std::uint8_t>{k, k}));
  }
  const auto stats = fx.batching.stats();
  EXPECT_EQ(stats.messages_in, 4u);
  EXPECT_EQ(stats.batches_out, 1u);
  EXPECT_EQ(stats.full_flushes, 1u);
  EXPECT_EQ(stats.tick_flushes, 0u);
  // One wire message carried all four frames.
  EXPECT_EQ(fx.env.network.stats().sent, 1u);
}

TEST(Batching, PartialBatchFlushedByTick) {
  BatchFixture fx(BatchingTransport::Options{.max_batch = 100,
                                             .flush_interval_us = 500});
  fx.batching.send(fx.a, fx.b, std::vector<std::uint8_t>{7});
  fx.batching.send(fx.a, fx.b, std::vector<std::uint8_t>{8});
  EXPECT_TRUE(fx.b_received.empty());
  fx.env.run();  // the tick at t=500 flushes, then the system quiesces
  ASSERT_EQ(fx.b_received.size(), 2u);
  const auto stats = fx.batching.stats();
  EXPECT_EQ(stats.batches_out, 1u);
  EXPECT_EQ(stats.tick_flushes, 1u);
  EXPECT_EQ(fx.env.scheduler.pending(), 0u);  // timer disarmed
}

TEST(Batching, LinksBatchIndependently) {
  BatchFixture fx(BatchingTransport::Options{.max_batch = 2});
  fx.batching.send(fx.a, fx.b, std::vector<std::uint8_t>{1});
  fx.batching.send(fx.b, fx.a, std::vector<std::uint8_t>{2});
  // Neither link reached max_batch: nothing sent until the tick.
  EXPECT_EQ(fx.env.network.stats().sent, 0u);
  fx.env.run();
  EXPECT_EQ(fx.b_received.size(), 1u);
  EXPECT_EQ(fx.a_received.size(), 1u);
  EXPECT_EQ(fx.batching.stats().batches_out, 2u);
}

TEST(Batching, UnpackIsZeroCopy) {
  BatchFixture fx(BatchingTransport::Options{.max_batch = 3});
  Buffer::reset_copy_count();
  for (std::uint8_t k = 0; k < 3; ++k) {
    fx.batching.send(fx.a, fx.b, std::vector<std::uint8_t>{k});
  }
  fx.env.run();
  ASSERT_EQ(fx.b_received.size(), 3u);
  // Receivers get WireFrame windows into the one batch buffer.
  EXPECT_EQ(Buffer::copy_count(), 0u);
}

TEST(Batching, ExplicitFlushDrainsEverything) {
  BatchFixture fx(BatchingTransport::Options{.max_batch = 100,
                                             .flush_interval_us = 100000});
  fx.batching.send(fx.a, fx.b, std::vector<std::uint8_t>{3});
  fx.batching.flush();
  fx.env.run_until(5000);  // before the (now moot) timer interval
  EXPECT_EQ(fx.b_received.size(), 1u);
}

TEST(Batching, OSendGroupRunsOverBatchedTransport) {
  SimEnv env;
  BatchingTransport batching(env.transport,
                             BatchingTransport::Options{
                                 .max_batch = 4, .flush_interval_us = 200});
  Group<OSendMember> group(batching, 3);
  MessageId prev = MessageId::null();
  for (int k = 0; k < 12; ++k) {
    prev = group[static_cast<std::size_t>(k) % 3].broadcast(
        "op" + std::to_string(k), {},
        prev.is_null() ? DepSpec::none() : DepSpec::after(prev));
  }
  env.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(group.log(i).size(), 12u) << "member " << i;
  }
  EXPECT_TRUE(group.all_delivered_same_set());
  const auto stats = batching.stats();
  EXPECT_EQ(stats.messages_in, 24u);  // 12 broadcasts x 2 remote members
  // Batching actually coalesced: fewer wire messages than frames.
  EXPECT_LT(stats.batches_out, stats.messages_in);
  EXPECT_EQ(env.network.stats().sent, stats.batches_out);
}

}  // namespace
}  // namespace cbc
