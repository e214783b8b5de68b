// ReliableEndpoint edge cases driven deterministically: instead of seeded
// random loss, a raw transport endpoint plays the peer and crafts exact
// frame sequences — duplicated data, gaps that force NACK recovery,
// out-of-window and stale control frames, unknown frame types — or a
// scripted partition loses exact frames between two endpoints. Every
// schedule here is exact, so each assertion pins one recovery rule.

#include <cstdint>
#include <gtest/gtest.h>
#include <set>
#include <span>
#include <vector>

#include "common/sim_env.h"
#include "transport/reliable.h"
#include "util/serde.h"

namespace cbc {
namespace {

constexpr std::uint8_t kDataType = 1;
constexpr std::uint8_t kControlType = 2;
constexpr std::uint8_t kWindowBaseType = 4;

/// Raw endpoint that records every arriving frame verbatim.
struct RawPeer {
  explicit RawPeer(Transport& transport) : transport(transport) {
    id = transport.add_endpoint([this](NodeId from, const WireFrame& frame) {
      received.emplace_back(from, std::vector<std::uint8_t>(
                                      frame.bytes().begin(),
                                      frame.bytes().end()));
    });
  }

  void send_data(NodeId to, SeqNo seq, std::uint64_t value) {
    Writer writer;
    writer.u8(kDataType);
    writer.u64(seq);
    writer.u64(value);
    transport.send(id, to, writer.take_shared());
  }

  /// A control frame as a receiver without an ack ceiling sends it: its
  /// contiguous floor equals its cumulative ack.
  void send_control(NodeId to, SeqNo cumulative,
                    std::vector<std::uint64_t> missing) {
    Writer writer;
    writer.u8(kControlType);
    writer.u64(cumulative);
    writer.u64(cumulative);
    writer.u64_vec(missing);
    transport.send(id, to, writer.take_shared());
  }

  void send_window_base(NodeId to, SeqNo base) {
    Writer writer;
    writer.u8(kWindowBaseType);
    writer.u64(base);
    transport.send(id, to, writer.take_shared());
  }

  /// Frames received whose first byte is `type`.
  [[nodiscard]] std::size_t frames_of(std::uint8_t type) const {
    std::size_t count = 0;
    for (const auto& [from, bytes] : received) {
      count += !bytes.empty() && bytes[0] == type;
    }
    return count;
  }
  [[nodiscard]] std::size_t data_frames() const { return frames_of(kDataType); }

  /// The bases of every kWindowBase frame received, in arrival order.
  [[nodiscard]] std::vector<SeqNo> window_bases() const {
    std::vector<SeqNo> bases;
    for (const auto& [from, bytes] : received) {
      if (!bytes.empty() && bytes[0] == kWindowBaseType) {
        Reader reader{std::span<const std::uint8_t>(bytes)};
        reader.u8();
        bases.push_back(reader.u64());
      }
    }
    return bases;
  }

  /// Parses the most recent control frame as (cumulative, missing); the
  /// endpoint under test has no ack ceiling, so its floor must equal its
  /// cumulative ack.
  [[nodiscard]] std::pair<SeqNo, std::vector<std::uint64_t>>
  last_control() const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (!it->second.empty() && it->second[0] == kControlType) {
        Reader reader(std::span(it->second));
        reader.u8();
        const SeqNo cumulative = reader.u64();
        EXPECT_EQ(reader.u64(), cumulative);
        return {cumulative, reader.u64_vec()};
      }
    }
    return {0, {}};
  }

  Transport& transport;
  NodeId id = kNoNode;
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> received;
};

struct EdgeRig {
  EdgeRig()
      : peer(env.transport),
        endpoint(env.transport,
                 [this](NodeId, const WireFrame& frame) {
                   Reader reader(frame.bytes());
                   delivered.push_back(reader.u64());
                 }) {}

  testkit::SimEnv env;  // loss-free, zero-jitter: every frame is hand-made
  RawPeer peer;
  ReliableEndpoint endpoint;
  std::vector<std::uint64_t> delivered;
};

TEST(ReliableEdge, DuplicateDataFrameIsSuppressedAndAckedImmediately) {
  EdgeRig rig;
  rig.peer.send_data(rig.endpoint.id(), 1, 42);
  rig.peer.send_data(rig.endpoint.id(), 1, 42);  // exact duplicate
  rig.env.run();
  EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(rig.endpoint.stats().duplicates_suppressed, 1u);
  // The duplicate provokes an immediate ack so a retransmitting sender
  // can prune and stop — no control-interval wait.
  const auto [cumulative, missing] = rig.peer.last_control();
  EXPECT_EQ(cumulative, 1u);
  EXPECT_TRUE(missing.empty());
}

TEST(ReliableEdge, StaleDuplicateBelowContiguousIsSuppressed) {
  EdgeRig rig;
  rig.peer.send_data(rig.endpoint.id(), 1, 10);
  rig.peer.send_data(rig.endpoint.id(), 2, 11);
  rig.env.run_until(1000);
  ASSERT_EQ(rig.delivered.size(), 2u);
  rig.peer.send_data(rig.endpoint.id(), 1, 10);  // below contiguous now
  rig.env.run();
  EXPECT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.endpoint.stats().duplicates_suppressed, 1u);
}

TEST(ReliableEdge, GapTriggersNackAndRetransmitHealsIt) {
  EdgeRig rig;
  // seq 2 "lost": the receiver sees 1 then 3 and must NACK exactly {2}.
  rig.peer.send_data(rig.endpoint.id(), 1, 10);
  rig.peer.send_data(rig.endpoint.id(), 3, 12);
  rig.env.run_until(5000);  // past one control interval
  auto [cumulative, missing] = rig.peer.last_control();
  EXPECT_EQ(cumulative, 1u);
  EXPECT_EQ(missing, (std::vector<std::uint64_t>{2}));
  // Out-of-order delivery is the contract: 3 was handed up before 2.
  EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{10, 12}));

  rig.peer.send_data(rig.endpoint.id(), 2, 11);  // the "retransmission"
  rig.env.run();  // must quiesce: gap healed, ack sent, timers disarmed
  EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{10, 12, 11}));
  EXPECT_EQ(rig.env.scheduler.pending(), 0u);
  std::tie(cumulative, missing) = rig.peer.last_control();
  EXPECT_EQ(cumulative, 3u);
  EXPECT_TRUE(missing.empty());
}

TEST(ReliableEdge, OutOfWindowAckIsHarmless) {
  EdgeRig rig;
  rig.endpoint.send(rig.peer.id, std::vector<std::uint8_t>{1, 2, 3});
  rig.env.run_until(1500);
  ASSERT_EQ(rig.peer.data_frames(), 1u);
  // A control frame acking far beyond anything ever sent, NACKing seqs
  // that never existed: the sender must prune, resend nothing, and stop.
  rig.peer.send_control(rig.endpoint.id(), 100, {50, 77});
  rig.env.run();
  EXPECT_EQ(rig.endpoint.stats().retransmissions, 0u);
  EXPECT_EQ(rig.peer.data_frames(), 1u);  // no bogus retransmits
  EXPECT_EQ(rig.env.scheduler.pending(), 0u);  // unacked drained, quiesced
}

TEST(ReliableEdge, StaleControlFrameCausesNoRetransmit) {
  EdgeRig rig;
  // Nothing was ever sent to this peer; an unsolicited stale ack must be
  // a pure no-op.
  rig.peer.send_control(rig.endpoint.id(), 0, {});
  rig.env.run();
  EXPECT_EQ(rig.endpoint.stats().retransmissions, 0u);
  EXPECT_EQ(rig.env.scheduler.pending(), 0u);
}

TEST(ReliableEdge, NackForUnackedSeqRetransmitsImmediately) {
  EdgeRig rig;
  rig.endpoint.send(rig.peer.id, std::vector<std::uint8_t>{9});
  rig.env.run_until(1500);
  ASSERT_EQ(rig.peer.data_frames(), 1u);
  // Peer claims it never got seq 1: retransmit must not wait for the
  // sender-side timer.
  rig.peer.send_control(rig.endpoint.id(), 0, {1});
  rig.env.run_until(4000);  // well before retransmit_interval (10ms)
  EXPECT_EQ(rig.endpoint.stats().retransmissions, 1u);
  EXPECT_EQ(rig.peer.data_frames(), 2u);
  // The retransmitted frame is byte-identical to the original.
  EXPECT_EQ(rig.peer.received[0].second, rig.peer.received[1].second);
}

TEST(ReliableEdge, UnknownFrameTypeDroppedAndCounted) {
  EdgeRig rig;
  Writer writer;
  writer.u8(9);  // no such frame type
  writer.u64(1);
  rig.env.transport.send(rig.peer.id, rig.endpoint.id(),
                         writer.take_shared());
  // Untrusted datagram input: an unrecognized frame must be dropped and
  // counted, not thrown — a throw would unwind a real socket event loop.
  EXPECT_NO_THROW(rig.env.run());
  EXPECT_EQ(rig.endpoint.stats().malformed_frames, 1u);
  // The endpoint still works afterwards.
  rig.peer.send_data(rig.endpoint.id(), 1, 42);
  rig.env.run();
  EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{42}));
}

TEST(ReliableEdge, AckBelowTheRetainedWindowIsAnsweredWithItsBase) {
  // Sender half of the window-base handshake: a cumulative ack below the
  // lowest seq the sender still retains comes from a restarted receiver
  // chasing history its old incarnation acked, so the sender names where
  // its window starts instead of waiting for NACKs it can never serve.
  EdgeRig rig;
  for (std::uint8_t value = 1; value <= 5; ++value) {
    rig.endpoint.send(rig.peer.id, std::vector<std::uint8_t>{value});
  }
  rig.env.run_until(1500);
  ASSERT_EQ(rig.peer.data_frames(), 5u);
  rig.peer.send_control(rig.endpoint.id(), 2, {});  // 3..5 stay retained
  rig.env.run_until(3500);
  EXPECT_TRUE(rig.peer.window_bases().empty());  // the window's own edge
  rig.peer.send_control(rig.endpoint.id(), 0, {});  // a fresh incarnation
  rig.env.run_until(5500);
  EXPECT_EQ(rig.peer.window_bases(), (std::vector<SeqNo>{3}));
  EXPECT_EQ(rig.endpoint.stats().retransmissions, 0u);
}

TEST(ReliableEdge, WindowBaseRaisesTheFloorPastHeldSeqsAndAcksAtOnce) {
  // Receiver half: seqs 3 and 4 are held above the hole at 2 when the
  // sender says its window starts at 3. The floor jumps to 2 and absorbs
  // the held seqs, one resync is counted, and the new floor is acked at
  // once, not at the next control tick.
  EdgeRig rig;
  rig.peer.send_data(rig.endpoint.id(), 1, 10);
  rig.peer.send_data(rig.endpoint.id(), 3, 12);
  rig.peer.send_data(rig.endpoint.id(), 4, 13);
  rig.env.run_until(1500);
  ASSERT_EQ(rig.delivered, (std::vector<std::uint64_t>{10, 12, 13}));
  ASSERT_EQ(rig.peer.frames_of(kControlType), 0u);

  rig.peer.send_window_base(rig.endpoint.id(), 3);  // arrives at 2500
  // The immediate ack lands at 3500; the control tick due at 3000 would
  // land at 4000.
  rig.env.run_until(3600);
  EXPECT_EQ(rig.endpoint.stats().window_resyncs, 1u);
  EXPECT_EQ(rig.peer.frames_of(kControlType), 1u);
  const auto [cumulative, missing] = rig.peer.last_control();
  EXPECT_EQ(cumulative, 4u);
  EXPECT_TRUE(missing.empty());

  // The floor covers the skipped seq, and a repeated base is no resync.
  rig.peer.send_data(rig.endpoint.id(), 2, 11);
  rig.peer.send_window_base(rig.endpoint.id(), 3);
  rig.env.run();
  EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{10, 12, 13}));
  EXPECT_EQ(rig.endpoint.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(rig.endpoint.stats().window_resyncs, 1u);
  EXPECT_EQ(rig.env.scheduler.pending(), 0u);
}

TEST(ReliableEdge, LostTailAboveTheFloorIsResentWhileAcksAreCapped) {
  // The receiver acks nothing (ceiling 0), as a checkpointing member does
  // before its first stable point, so the sender keeps all 100 frames.
  // Seqs 70..100 are lost on first send and nothing above them arrives,
  // so no NACK can name them: only a retransmit pass that starts above
  // the floor the receiver reports (69), not at the lowest unacked seq,
  // resends them. The sender is 0 and the receiver 1; the window
  // [500, 600) µs holds nothing but the first send of seqs 70..100.
  testkit::SimEnv::Config config;
  config.fault_plan = "seed 42\npartition 500 100 0|1\n";
  testkit::SimEnv env(config);
  std::set<std::uint64_t> received;
  ReliableEndpoint sender(env.transport, [](NodeId, const WireFrame&) {});
  ReliableEndpoint receiver(env.transport,
                            [&](NodeId, const WireFrame& frame) {
                              Reader reader(frame.bytes());
                              received.insert(reader.u64());
                            });
  ASSERT_EQ(sender.id(), 0u);
  ASSERT_EQ(receiver.id(), 1u);
  receiver.set_ack_ceiling(sender.id(), 0);
  const auto send = [&](std::uint64_t value) {
    Writer writer;
    writer.u64(value);
    sender.send(receiver.id(), writer.take());
  };
  for (std::uint64_t seq = 1; seq <= 69; ++seq) {
    send(seq);
  }
  env.run_until(500);
  for (std::uint64_t seq = 70; seq <= 100; ++seq) {
    send(seq);
  }
  // Default intervals: 2 ms control, 5 x 2 ms = 10 ms retransmit.
  env.run_until(4 * 10'000);
  EXPECT_EQ(env.faults().partition_drops, 31u);
  EXPECT_EQ(received.size(), 100u);
  EXPECT_EQ(sender.unacked_total(), 100u);  // the ceiling still holds
}

TEST(ReliableEdge, DuplicateOfGapFrameStillAboveContiguousIsSuppressed) {
  EdgeRig rig;
  // seq 2 received twice while seq 1 is still missing: the copy in the
  // above-contiguous set must also dedupe.
  rig.peer.send_data(rig.endpoint.id(), 2, 20);
  rig.peer.send_data(rig.endpoint.id(), 2, 20);
  rig.env.run_until(1000);
  EXPECT_EQ(rig.delivered, (std::vector<std::uint64_t>{20}));
  EXPECT_EQ(rig.endpoint.stats().duplicates_suppressed, 1u);
  rig.peer.send_data(rig.endpoint.id(), 1, 19);  // heal so the run quiesces
  rig.env.run();
  EXPECT_EQ(rig.env.scheduler.pending(), 0u);
}

}  // namespace
}  // namespace cbc
