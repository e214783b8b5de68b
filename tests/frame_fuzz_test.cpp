// Wire-frame robustness sweep: every parser that faces untrusted datagram
// bytes (serde primitives, reliable framing, batch framing, ordering-layer
// envelopes) is fed systematically truncated and bit-flipped inputs. The
// contract under test: corrupt input is dropped and COUNTED — never an
// abort, never an unbounded allocation, and the endpoint keeps working
// afterwards.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "causal/osend.h"
#include "common/group_fixture.h"
#include "common/osend_frame.h"
#include "common/sim_env.h"
#include "fault/checkpoint.h"
#include "fault/state_transfer.h"
#include "graph/dep_spec.h"
#include "graph/message_id.h"
#include "kv/wire.h"
#include "net/oob_client.h"
#include "time/vector_clock.h"
#include "transport/batching.h"
#include "transport/reliable.h"
#include "util/serde.h"

namespace cbc {
namespace {

using testkit::Group;
using testkit::osend_frame;
using testkit::SimEnv;

// ---------- Serde primitives ----------

TEST(FrameFuzz, U64VecWithCorruptCountFailsBeforeAllocating) {
  // A 4-byte length prefix of ~4 billion followed by nothing: the reader
  // must bounds-check BEFORE reserving, or corrupt input turns into a
  // multi-gigabyte allocation.
  Writer writer;
  writer.u32(0xFFFF'FFFF);
  writer.u64(1);  // 8 bytes present, 32 GiB claimed
  const std::vector<std::uint8_t> bytes = writer.take();
  Reader reader(bytes);
  EXPECT_THROW(reader.u64_vec(), SerdeError);
}

TEST(FrameFuzz, EveryTruncationOfEveryPrimitiveThrows) {
  Writer writer;
  writer.u8(7);
  writer.u32(42);
  writer.u64(1ull << 40);
  writer.str("label");
  writer.u64_vec({1, 2, 3});
  const std::vector<std::uint8_t> full = writer.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> sliced(full.begin(), full.begin() + cut);
    Reader reader(sliced);
    EXPECT_THROW(
        {
          reader.u8();
          reader.u32();
          reader.u64();
          reader.str();
          reader.u64_vec();
        },
        SerdeError)
        << "prefix of " << cut << " bytes parsed fully";
  }
}

// ---------- ReliableEndpoint framing ----------

TEST(FrameFuzz, SlicedControlFramesAreCountedNotFatal) {
  SimEnv env;
  const NodeId raw =
      env.transport.add_endpoint([](NodeId, const WireFrame&) {});
  ReliableEndpoint endpoint(env.transport,
                            [](NodeId, const WireFrame&) {});
  // A well-formed control frame: type, cumulative ack, contiguous floor,
  // 3-entry NACK list.
  Writer writer;
  writer.u8(2);
  writer.u64(5);
  writer.u64(5);
  writer.u64_vec({7, 9, 11});
  const std::vector<std::uint8_t> full = writer.take();
  std::uint64_t expected_malformed = 0;
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    env.transport.send(raw, endpoint.id(),
                       std::vector<std::uint8_t>(full.begin(),
                                                 full.begin() + cut));
    expected_malformed += 1;
    EXPECT_NO_THROW(env.run());
  }
  EXPECT_EQ(endpoint.stats().malformed_frames, expected_malformed);
}

TEST(FrameFuzz, UnknownTypeAndShortDataFramesAreCountedNotFatal) {
  SimEnv env;
  const NodeId raw =
      env.transport.add_endpoint([](NodeId, const WireFrame&) {});
  std::vector<std::uint64_t> delivered;
  ReliableEndpoint endpoint(env.transport,
                            [&](NodeId, const WireFrame& frame) {
                              Reader reader(frame.bytes());
                              delivered.push_back(reader.u64());
                            });
  for (std::uint8_t type = 0; type < 8; ++type) {
    if (type >= 1 && type <= 5) {
      continue;  // valid types: data, control, heartbeat, window-base, oob
    }
    Writer writer;
    writer.u8(type);
    writer.u64(1);
    env.transport.send(raw, endpoint.id(), writer.take());
    EXPECT_NO_THROW(env.run());
  }
  // Data frames shorter than the 9-byte header are malformed too.
  env.transport.send(raw, endpoint.id(), {1});
  env.transport.send(raw, endpoint.id(), {1, 0, 0, 0});
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(endpoint.stats().malformed_frames, 5u);
  // The endpoint still accepts a healthy frame afterwards.
  Writer good;
  good.u8(1);
  good.u64(1);
  good.u64(99);
  env.transport.send(raw, endpoint.id(), good.take());
  env.run();
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{99}));
}

// ---------- Heartbeat / window-base / oob frames ----------

TEST(FrameFuzz, TruncatedWindowBaseFramesAreCountedNotFatal) {
  SimEnv env;
  const NodeId raw =
      env.transport.add_endpoint([](NodeId, const WireFrame&) {});
  ReliableEndpoint endpoint(env.transport,
                            [](NodeId, const WireFrame&) {});
  // Well-formed: [u8 kWindowBase][u64 base]. Every strict prefix is
  // missing bytes of the base and must land in the malformed counter.
  Writer writer;
  writer.u8(4);
  writer.u64(3);
  const std::vector<std::uint8_t> full = writer.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    env.transport.send(raw, endpoint.id(),
                       std::vector<std::uint8_t>(full.begin(),
                                                 full.begin() + cut));
    EXPECT_NO_THROW(env.run());
  }
  // Semantically invalid bases are malformed too: base 0, and a base
  // beyond the receiver's forward window (a corrupt fast-forward must not
  // wipe the receive state).
  Writer zero;
  zero.u8(4);
  zero.u64(0);
  env.transport.send(raw, endpoint.id(), zero.take());
  Writer huge;
  huge.u8(4);
  huge.u64(1ull << 60);
  env.transport.send(raw, endpoint.id(), huge.take());
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(endpoint.stats().malformed_frames, full.size() + 2);
  EXPECT_EQ(endpoint.stats().window_resyncs, 0u);
}

TEST(FrameFuzz, HeartbeatAndOobFramesTolerateTruncationAndFlips) {
  SimEnv env;
  const NodeId raw =
      env.transport.add_endpoint([](NodeId, const WireFrame&) {});
  std::vector<std::vector<std::uint8_t>> oob_seen;
  ReliableEndpoint::Options options;
  options.oob_handler = [&](NodeId, std::span<const std::uint8_t> payload) {
    oob_seen.emplace_back(payload.begin(), payload.end());
  };
  ReliableEndpoint endpoint(env.transport, [](NodeId, const WireFrame&) {},
                            options);
  // Well-formed, as a monitoring endpoint sends it: [u8 kHeartbeat]
  // [i64 origin][i64 echo origin][i64 echo rx], here the first heartbeat
  // of a link (no echo yet). Every strict prefix — the empty frame and
  // the bare type byte included — is missing fields and must land in the
  // malformed counter; only the whole frame is a heartbeat.
  Writer writer;
  writer.u8(3);
  writer.i64(1'700'000'000'000'000);
  writer.i64(0);
  writer.i64(0);
  const std::vector<std::uint8_t> full = writer.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    env.transport.send(raw, endpoint.id(),
                       std::vector<std::uint8_t>(full.begin(),
                                                 full.begin() + cut));
    EXPECT_NO_THROW(env.run());
  }
  env.transport.send(raw, endpoint.id(), full);
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(endpoint.stats().malformed_frames, full.size());
  EXPECT_EQ(endpoint.stats().heartbeats_received, 1u);
  // Oob frames pass any payload through opaquely — including an empty one
  // — and flipping payload bits must reach the handler, not the parser.
  env.transport.send(raw, endpoint.id(), {5});
  for (std::uint8_t flip = 0; flip < 8; ++flip) {
    env.transport.send(
        raw, endpoint.id(),
        {5, static_cast<std::uint8_t>(0xAA ^ (1u << flip)), 0x55});
  }
  EXPECT_NO_THROW(env.run());
  EXPECT_EQ(endpoint.stats().oob_frames, 9u);
  EXPECT_EQ(oob_seen.size(), 9u);
  EXPECT_TRUE(oob_seen.front().empty());
}

// ---------- State-transfer oob payloads ----------

/// Whether the client's scanner finds a payload `parse` accepts.
template <typename Parse>
bool scanned(std::span<const std::uint8_t> datagram, Parse parse) {
  std::uint64_t strays = 0;
  return net::OobClient::scan(
      datagram,
      [&](std::span<const std::uint8_t> payload) {
        return parse(payload).has_value();
      },
      strays);
}

/// The client's side of one payload: every strict prefix and every bit
/// flip of the datagram carrying it goes through the scanner. No prefix
/// yields the payload, no flip throws, and the whole datagram yields it.
template <typename Parse>
void sweep_scanner(const std::vector<std::uint8_t>& payload, Parse parse) {
  const SharedBuffer packed = net::OobClient::datagram(payload);
  const std::vector<std::uint8_t> datagram(packed->bytes().begin(),
                                           packed->bytes().end());
  for (std::size_t cut = 0; cut < datagram.size(); ++cut) {
    EXPECT_FALSE(scanned(std::span(datagram).first(cut), parse))
        << "datagram prefix of " << cut << " bytes parsed";
  }
  for (std::size_t i = 0; i < datagram.size(); ++i) {
    std::vector<std::uint8_t> mutated = datagram;
    mutated[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NO_THROW((void)scanned(mutated, parse))
        << "bit flip in datagram byte " << i;
  }
  EXPECT_TRUE(scanned(datagram, parse));
}

TEST(FrameFuzz, EveryTruncationOfAStateRequestParsesToNullopt) {
  const std::vector<std::uint8_t> full =
      fault::encode_state_request({.requester = 2, .have = 7});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> sliced(full.begin(), full.begin() + cut);
    EXPECT_EQ(fault::parse_state_request(sliced), std::nullopt)
        << "prefix of " << cut << " bytes parsed";
  }
  const auto parsed = fault::parse_state_request(full);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->requester, 2u);
  EXPECT_EQ(parsed->have, 7u);
  sweep_scanner(full, &fault::parse_state_request);
}

TEST(FrameFuzz, TruncatedAndBitFlippedStateResponsesNeverAbort) {
  fault::Checkpoint snapshot;
  snapshot.node = 1;
  snapshot.cycles = 2;
  snapshot.stable_digests = {0x1111, 0x2222};
  snapshot.last_sync = MessageId{0, 9};
  snapshot.frontier = VectorClock(3);
  snapshot.app_state = {1, 2, 3, 4};
  const std::vector<std::uint8_t> full =
      fault::encode_state_response(snapshot);
  // Truncations: nullopt, never a throw or a huge allocation (the digest
  // vector's length prefix is bounds-checked before reserving).
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> sliced(full.begin(), full.begin() + cut);
    EXPECT_EQ(fault::parse_state_response(sliced), std::nullopt)
        << "prefix of " << cut << " bytes parsed";
  }
  // Bit flips: a flip may corrupt a field into another valid value, but
  // it must parse-or-nullopt, never abort.
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::vector<std::uint8_t> mutated = full;
    mutated[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NO_THROW((void)fault::parse_state_response(mutated))
        << "bit flip in byte " << i;
  }
  const auto parsed = fault::parse_state_response(full);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stable_digests, snapshot.stable_digests);
  EXPECT_EQ(parsed->app_state, snapshot.app_state);
  sweep_scanner(full, &fault::parse_state_response);
}

TEST(FrameFuzz, TruncatedAndBitFlippedStateRefusalsNeverAbort) {
  const std::vector<std::uint8_t> full = fault::encode_state_refusal(
      {.response_bytes = 70'000, .datagram_cap = 61'440});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> sliced(full.begin(), full.begin() + cut);
    EXPECT_EQ(fault::parse_state_refusal(sliced), std::nullopt)
        << "prefix of " << cut << " bytes parsed";
  }
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::vector<std::uint8_t> mutated = full;
    mutated[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NO_THROW((void)fault::parse_state_refusal(mutated))
        << "bit flip in byte " << i;
  }
  // Each tag parses only as its own payload.
  EXPECT_EQ(fault::parse_state_response(full), std::nullopt);
  EXPECT_EQ(fault::parse_state_request(full), std::nullopt);
  const auto parsed = fault::parse_state_refusal(full);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->response_bytes, 70'000u);
  EXPECT_EQ(parsed->datagram_cap, 61'440u);
  sweep_scanner(full, &fault::parse_state_refusal);
}

// ---------- Batch framing ----------

TEST(FrameFuzz, SlicedBatchDeliversDecodablePrefixAndCountsTheRest) {
  SimEnv env;
  BatchingTransport batching(env.transport);
  std::vector<std::size_t> lengths;
  const NodeId receiver = batching.add_endpoint(
      [&](NodeId, const WireFrame& frame) {
        lengths.push_back(frame.bytes().size());
      });
  const NodeId raw =
      env.transport.add_endpoint([](NodeId, const WireFrame&) {});

  // A batch claiming 3 inner frames, truncated inside the third: the two
  // complete frames are handed up, the tail is one decode error.
  Writer writer;
  writer.u32(3);
  writer.blob(std::vector<std::uint8_t>(4, 0xAA));
  writer.blob(std::vector<std::uint8_t>(6, 0xBB));
  writer.blob(std::vector<std::uint8_t>(8, 0xCC));
  std::vector<std::uint8_t> full = writer.take();
  std::vector<std::uint8_t> sliced(full.begin(), full.end() - 5);
  env.transport.send(raw, receiver, std::move(sliced));
  env.run();
  EXPECT_EQ(lengths, (std::vector<std::size_t>{4, 6}));
  EXPECT_EQ(batching.stats().decode_errors, 1u);

  // Every other strict prefix: never a crash, never more than 3 frames.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    lengths.clear();
    env.transport.send(raw, receiver,
                       std::vector<std::uint8_t>(full.begin(),
                                                 full.begin() + cut));
    EXPECT_NO_THROW(env.run());
    EXPECT_LE(lengths.size(), 3u);
  }
}

// ---------- Ordering-layer envelopes ----------

TEST(FrameFuzz, EveryTruncationOfAnOSendFrameIsCounted) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 2);
  const std::vector<std::uint8_t> full = osend_frame(MessageId{0, 1}, "op");
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    env.transport.send(0, 1,
                       std::vector<std::uint8_t>(full.begin(),
                                                 full.begin() + cut));
    EXPECT_NO_THROW(env.run());
  }
  // Short prefixes cannot even yield a message id; longer ones fail later
  // in the parse. All must land in the malformed counter.
  EXPECT_EQ(group[1].stats().malformed, full.size());
  EXPECT_EQ(group[1].stats().delivered, 0u);
  // The untruncated frame is well formed: it delivers exactly once.
  env.transport.send(0, 1, full);
  env.run();
  EXPECT_EQ(group[1].stats().malformed, full.size());
  EXPECT_EQ(group[1].stats().delivered, 1u);
}

// ---------- kv client wire messages ----------

/// A representative OpRequest with a non-trivial context token: 2 shards
/// x 3 replicas, non-zero frontier entries, so the sweep crosses every
/// nested length prefix (key, value, token shards, frontier seqs).
kv::OpRequest sample_op_request() {
  kv::OpRequest request;
  request.type = kv::MsgType::kPut;
  request.session = 3;
  request.request = 17;
  request.key = "s0_k1";
  request.value = "r2v4";
  request.token = kv::ContextToken::zero(2, 3);
  request.token.shards[0].seqs = {5, 0, 2};
  request.token.shards[1].seqs = {1, 9, 0};
  return request;
}

kv::OpResponse sample_op_response() {
  kv::OpResponse response;
  response.session = 3;
  response.request = 17;
  response.status = kv::Status::kOk;
  response.present = true;
  response.value = "r2v4";
  response.fence_digest = 0xDEADBEEF12345678ull;
  response.shard = 1;
  response.frontier.seqs = {7, 3, 11};
  return response;
}

TEST(FrameFuzz, EveryTruncationOfEveryKvMessageParsesToNullopt) {
  const std::vector<std::vector<std::uint8_t>> messages = {
      kv::encode_map_request({.nonce = 0xA5A5A5A5ull}),
      kv::encode_map_response(
          {.nonce = 1, .shards = 4, .replicas = 3, .shard = 2, .rank = 1}),
      kv::encode_op_request(sample_op_request()),
      kv::encode_op_response(sample_op_response()),
  };
  for (const std::vector<std::uint8_t>& full : messages) {
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::vector<std::uint8_t> sliced(full.begin(),
                                             full.begin() + cut);
      EXPECT_EQ(kv::parse_map_request(sliced), std::nullopt);
      EXPECT_EQ(kv::parse_map_response(sliced), std::nullopt);
      EXPECT_EQ(kv::parse_op_request(sliced), std::nullopt)
          << "op-request prefix of " << cut << " bytes parsed";
      EXPECT_EQ(kv::parse_op_response(sliced), std::nullopt);
    }
  }
  // The full encodings round-trip (the sweep above proves strict prefixes
  // never do).
  const auto request = kv::parse_op_request(messages[2]);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->token, sample_op_request().token);
  const auto response = kv::parse_op_response(messages[3]);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->frontier, sample_op_response().frontier);
}

TEST(FrameFuzz, BitFlippedKvMessagesNeverAbort) {
  // Each parser is fed every single-bit corruption of every message kind
  // — including cross-kind (an op-request fed to the op-response parser
  // via a flipped type byte). Parse-or-nullopt, never a throw; a length
  // prefix flipped to ~4 billion must bounds-check before reserving.
  const std::vector<std::vector<std::uint8_t>> messages = {
      kv::encode_map_request({.nonce = 7}),
      kv::encode_map_response(
          {.nonce = 1, .shards = 4, .replicas = 3, .shard = 2, .rank = 1}),
      kv::encode_op_request(sample_op_request()),
      kv::encode_op_response(sample_op_response()),
  };
  for (const std::vector<std::uint8_t>& full : messages) {
    for (std::size_t i = 0; i < full.size(); ++i) {
      for (std::uint8_t bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mutated = full;
        mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_NO_THROW({
          (void)kv::peek_type(mutated);
          (void)kv::parse_map_request(mutated);
          (void)kv::parse_map_response(mutated);
          (void)kv::parse_op_request(mutated);
          (void)kv::parse_op_response(mutated);
        }) << "bit " << int(bit) << " of byte " << i;
      }
    }
  }
}

TEST(FrameFuzz, KvPeekTypeBoundsUnknownAndEmptyPayloads) {
  EXPECT_EQ(kv::peek_type(std::vector<std::uint8_t>{}), std::nullopt);
  for (int type = 0; type < 256; ++type) {
    const std::vector<std::uint8_t> payload = {
        static_cast<std::uint8_t>(type)};
    const auto peeked = kv::peek_type(payload);
    if (type >= 1 && type <= 7) {
      ASSERT_TRUE(peeked.has_value()) << "type " << type;
      EXPECT_EQ(static_cast<std::uint8_t>(*peeked), type);
    } else {
      EXPECT_EQ(peeked, std::nullopt) << "type " << type;
    }
  }
}

TEST(FrameFuzz, BitFlippedOSendFramesNeverCrashTheMember) {
  SimEnv env;
  Group<OSendMember> group(env.transport, 2);
  const std::vector<std::uint8_t> full = osend_frame(MessageId{0, 1}, "op");
  // Deterministic sweep: flip bit (i % 8) of byte i, one frame per flip.
  // Depending on where the flip lands the frame may parse as malformed,
  // name a sender outside the view, dedupe, or even deliver — all
  // acceptable; aborting the member is not.
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::vector<std::uint8_t> mutated = full;
    mutated[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    env.transport.send(0, 1, std::move(mutated));
    EXPECT_NO_THROW(env.run()) << "bit flip in byte " << i;
  }
  // The member still works: a clean broadcast from member 0 delivers.
  group[0].broadcast("after-fuzz", {}, DepSpec::none());
  env.run();
  EXPECT_GE(group[1].stats().delivered, 1u);
}

}  // namespace
}  // namespace cbc
