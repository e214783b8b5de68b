// Unit tests for the sharded KV service's building blocks: the KvStore
// state machine and its derived commutativity classes, the shard map and
// layout parsing, the client wire protocol with its §5.2 context token,
// and — the heart of the subsystem — KvService's context rule: a request
// whose token this shard's frontier does not cover yet is parked and
// served only after the frontier catches up; past its deadline it is
// refused (kRetry), never served stale.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/install.h"
#include "apps/kv_store.h"
#include "common/sim_env.h"
#include "kv/kv_service.h"
#include "kv/shard_map.h"
#include "kv/wire.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "object/value.h"
#include "replica/replica_group.h"
#include "util/serde.h"

namespace cbc {
namespace {

using testkit::SimEnv;

/// The catalog's derived commutativity table for the "kv" object — what
/// every cbc_kv replica actually runs with.
CommutativitySpec derived_kv_spec() {
  apps::install_objects();
  const auto entry = object::Catalog::instance().find("kv");
  require(entry.has_value(), "catalog is missing 'kv'");
  return object::derive_commutativity(entry->spec());
}

// ---------- KvStore state machine ----------

TEST(KvStore, PutGetFenceSemantics) {
  apps::KvStore store;
  {
    const auto op = apps::KvStore::put("alpha", "1");
    Reader args(op.args);
    EXPECT_TRUE(store.apply("put", args).empty());
  }
  {
    const auto op = apps::KvStore::get("alpha");
    Reader args(op.args);
    const std::vector<std::uint8_t> bytes = store.apply("get", args);
    Reader response(bytes);
    EXPECT_TRUE(response.boolean());
    EXPECT_EQ(response.str(), "1");
  }
  {
    const auto op = apps::KvStore::get("missing");
    Reader args(op.args);
    const std::vector<std::uint8_t> bytes = store.apply("get", args);
    Reader response(bytes);
    EXPECT_FALSE(response.boolean());
    EXPECT_EQ(response.str(), "");
  }
  EXPECT_EQ(store.lookup("alpha"), "1");
  EXPECT_EQ(store.lookup("missing"), std::nullopt);
  // Fence observes but never mutates: same digest twice, state unchanged.
  const auto fence = apps::KvStore::fence();
  Reader args1(fence.args);
  const std::vector<std::uint8_t> first_bytes = store.apply("fence", args1);
  Reader args2(fence.args);
  const std::vector<std::uint8_t> second_bytes = store.apply("fence", args2);
  EXPECT_EQ(Reader(first_bytes).u64(), Reader(second_bytes).u64());
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStore, FenceDigestIsBucketScoped) {
  // A fence over bucket b of N digests ONLY the keys hashing into b: a
  // put landing in another bucket must not change this bucket's digest —
  // that independence is what lets each shard fence its own sub-map and
  // still replay identically in a merged multi-shard history.
  const std::uint64_t buckets = 4;
  apps::KvStore store;
  std::map<std::uint64_t, std::uint64_t> before;
  for (std::uint64_t b = 0; b < buckets; ++b) {
    const auto op = apps::KvStore::fence(b, buckets);
    Reader args(op.args);
    const std::vector<std::uint8_t> bytes = store.apply("fence", args);
    before[b] = Reader(bytes).u64();
  }
  // Find the bucket "probe" hashes into by checking which digest moves.
  {
    const auto op = apps::KvStore::put("probe", "x");
    Reader args(op.args);
    store.apply("put", args);
  }
  std::size_t changed = 0;
  for (std::uint64_t b = 0; b < buckets; ++b) {
    const auto op = apps::KvStore::fence(b, buckets);
    Reader args(op.args);
    const std::vector<std::uint8_t> bytes = store.apply("fence", args);
    if (Reader(bytes).u64() != before[b]) {
      ++changed;
    }
  }
  EXPECT_EQ(changed, 1u);
}

TEST(KvStore, EqualityIgnoresBookkeepingAndSnapshotRoundTrips) {
  apps::KvStore a;
  apps::KvStore b;
  {
    const auto op = apps::KvStore::put("k", "v");
    Reader args(op.args);
    a.apply("put", args);
  }
  {
    // Same entries via a different op sequence: equal states.
    const auto put = apps::KvStore::put("k", "v");
    Reader args(put.args);
    b.apply("put", args);
    const auto get = apps::KvStore::get("k");
    Reader get_args(get.args);
    b.apply("get", get_args);
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a.ops_applied(), b.ops_applied());
  Writer writer;
  a.encode(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  Reader reader(bytes);
  const apps::KvStore decoded = apps::KvStore::decode(reader);
  EXPECT_EQ(decoded, a);
}

TEST(KvStore, DerivedClassesPutNopCommutativeGetFenceSync) {
  // The derived table is the §6.1 split the whole service relies on:
  // puts (distinct keys) and nops relax, gets and fences close activities.
  const CommutativitySpec spec = derived_kv_spec();
  EXPECT_TRUE(spec.is_commutative("put"));
  EXPECT_TRUE(spec.is_commutative("nop"));
  EXPECT_FALSE(spec.is_commutative("get"));
  EXPECT_FALSE(spec.is_commutative("fence"));
}

// ---------- ShardMap / KvLayout ----------

TEST(ShardMap, DeterministicAndInRange) {
  const kv::ShardMap map(4);
  std::map<std::size_t, std::size_t> histogram;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "session" + std::to_string(i);
    const std::size_t shard = map.shard_of(key);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, kv::ShardMap(4).shard_of(key));  // stable across maps
    histogram[shard] += 1;
  }
  // FNV-1a over 64 distinct keys must not collapse to one shard.
  EXPECT_GT(histogram.size(), 1u);
  const kv::ShardMap single(1);
  EXPECT_EQ(single.shard_of("anything"), 0u);
}

TEST(KvLayout, EncodeParseRoundTripAndConfigShape) {
  const kv::KvLayout layout = kv::KvLayout::localhost(
      2, 2, {9000, 9001, 9002, 9100, 9101, 9102});
  const kv::KvLayout reparsed = kv::KvLayout::parse(layout.encode_text());
  EXPECT_EQ(reparsed.shards, 2u);
  EXPECT_EQ(reparsed.replicas, 2u);
  ASSERT_EQ(reparsed.addresses.size(), 2u);
  ASSERT_EQ(reparsed.addresses[0].size(), 3u);  // replicas + router slot
  EXPECT_EQ(reparsed.addresses[1][2].port, 9102);
  EXPECT_EQ(reparsed.router_slot(), 2u);
  // Each shard's ClusterConfig covers ranks 0..replicas (router last).
  const net::ClusterConfig config = reparsed.shard_config(1);
  EXPECT_EQ(config.size(), 3u);
}

TEST(KvLayout, MalformedLayoutsNameTheProblem) {
  EXPECT_THROW((void)kv::KvLayout::parse("shards 2\nreplicas 1\n"),
               InvalidArgument);  // no member lines at all
  EXPECT_THROW((void)kv::KvLayout::parse(
                   "shards 1\nreplicas 1\n"
                   "member 0 0 127.0.0.1:9000\n"),
               InvalidArgument);  // missing the router slot (rank 1)
  EXPECT_THROW((void)kv::KvLayout::parse(
                   "shards 1\nreplicas 1\n"
                   "member 0 0 127.0.0.1:9000\n"
                   "member 0 1 not-an-address\n"),
               InvalidArgument);
  EXPECT_THROW((void)kv::KvLayout::parse(
                   "replicas 1\n"
                   "member 0 0 127.0.0.1:9000\n"
                   "member 0 1 127.0.0.1:9001\n"),
               InvalidArgument);  // shard count missing
  // Whole numbers only: these read port 9100 and 2 shards.
  EXPECT_THROW((void)kv::KvLayout::parse(
                   "shards 1\nreplicas 1\n"
                   "member 0 0 127.0.0.1:9100x\n"
                   "member 0 1 127.0.0.1:9101\n"),
               InvalidArgument);
  EXPECT_THROW((void)kv::KvLayout::parse(
                   "shards 2x\nreplicas 1\n"
                   "member 0 0 127.0.0.1:9000\n"
                   "member 0 1 127.0.0.1:9001\n"
                   "member 1 0 127.0.0.1:9002\n"
                   "member 1 1 127.0.0.1:9003\n"),
               InvalidArgument);
}

// ---------- Context token ----------

TEST(ContextToken, CoversIsPointwiseAndMergeIsMax) {
  kv::ShardFrontier have;
  have.seqs = {3, 1, 4};
  kv::ShardFrontier want;
  want.seqs = {2, 1, 4};
  EXPECT_TRUE(have.covers(want));
  want.seqs[1] = 2;
  EXPECT_FALSE(have.covers(want));
  have.merge(want);
  EXPECT_EQ(have.seqs, (std::vector<std::uint64_t>{3, 2, 4}));
  EXPECT_TRUE(have.covers(want));

  kv::ContextToken a = kv::ContextToken::zero(2, 3);
  kv::ContextToken b = kv::ContextToken::zero(2, 3);
  b.shards[1].seqs = {0, 5, 0};
  a.merge(b);
  EXPECT_EQ(a.shards[1].seqs[1], 5u);
  EXPECT_EQ(a.shards[0], kv::ShardFrontier({{0, 0, 0}}));
  a.merge_shard(0, kv::ShardFrontier{{7, 0, 0}});
  EXPECT_EQ(a.shards[0].seqs[0], 7u);
}

TEST(KvWire, AllMessageKindsRoundTrip) {
  const kv::MapRequest map_request{.nonce = 99};
  const auto parsed_map_request =
      kv::parse_map_request(kv::encode_map_request(map_request));
  ASSERT_TRUE(parsed_map_request.has_value());
  EXPECT_EQ(parsed_map_request->nonce, 99u);

  const kv::MapResponse map_response{
      .nonce = 99, .shards = 4, .replicas = 3, .shard = 2, .rank = 1};
  const auto parsed_map_response =
      kv::parse_map_response(kv::encode_map_response(map_response));
  ASSERT_TRUE(parsed_map_response.has_value());
  EXPECT_EQ(parsed_map_response->shards, 4u);
  EXPECT_EQ(parsed_map_response->rank, 1u);

  kv::OpRequest request;
  request.type = kv::MsgType::kGet;
  request.session = 2;
  request.request = 5;
  request.key = "k";
  request.token = kv::ContextToken::zero(1, 2);
  request.token.shards[0].seqs = {4, 2};
  const auto parsed_request =
      kv::parse_op_request(kv::encode_op_request(request));
  ASSERT_TRUE(parsed_request.has_value());
  EXPECT_EQ(parsed_request->type, kv::MsgType::kGet);
  EXPECT_EQ(parsed_request->token, request.token);

  kv::OpResponse response;
  response.session = 2;
  response.request = 5;
  response.status = kv::Status::kRetry;
  response.shard = 3;
  response.frontier.seqs = {8, 8};
  const auto parsed_response =
      kv::parse_op_response(kv::encode_op_response(response));
  ASSERT_TRUE(parsed_response.has_value());
  EXPECT_EQ(parsed_response->status, kv::Status::kRetry);
  EXPECT_EQ(parsed_response->frontier, response.frontier);
}

// ---------- KvService context rule ----------

/// One simulated 2-replica shard with a KvService at rank 0: requests go
/// in through handle(), replies come out into `replies`, time is a
/// manually advanced microsecond counter, and deliveries are announced
/// exactly the way cbc_kv does (after env.run() settles the group).
struct ServiceFixture {
  explicit ServiceFixture(std::int64_t wait_timeout_us = 50'000)
      : group(env.transport, 2, derived_kv_spec(), replica_options()) {
    kv::KvService::Options options;
    options.shard = 0;
    options.shards = 2;
    options.replicas = 2;
    options.rank = 0;
    options.wait_timeout_us = wait_timeout_us;
    options.record_get = [this](check::HistoryOp op) {
      recorded_gets.push_back(std::move(op));
    };
    service = std::make_unique<kv::KvService>(
        group.node(0),
        [this](NodeId to, std::vector<std::uint8_t> bytes) {
          replies.emplace_back(to, std::move(bytes));
        },
        [this] { return now_us; }, options);
  }

  static ReplicaNode<object::Value>::Options replica_options() {
    // Runs before derived_kv_spec() when the ctor arguments evaluate
    // right-to-left, so the catalog install cannot be left to it.
    apps::install_objects();
    ReplicaNode<object::Value>::Options options;
    options.front_end.fifo_chain = true;
    options.initial =
        object::Value(object::Catalog::instance().find("kv")->make());
    return options;
  }

  /// Sends one op request to the service as client node 1 (any NodeId
  /// works — the reply path is captured, not routed).
  void send(const kv::OpRequest& request) {
    const std::vector<std::uint8_t> bytes = kv::encode_op_request(request);
    service->handle(1, bytes);
  }

  [[nodiscard]] kv::OpResponse last_reply() const {
    require(!replies.empty(), "no reply captured");
    const auto parsed = kv::parse_op_response(replies.back().second);
    require(parsed.has_value(), "reply did not parse");
    return *parsed;
  }

  SimEnv env;
  ReplicaGroup<object::Value> group;
  std::unique_ptr<kv::KvService> service;
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> replies;
  std::vector<check::HistoryOp> recorded_gets;
  std::int64_t now_us = 0;
};

kv::OpRequest get_request(std::string key, kv::ContextToken token,
                          std::uint64_t request_id = 1) {
  kv::OpRequest request;
  request.type = kv::MsgType::kGet;
  request.session = 7;
  request.request = request_id;
  request.key = std::move(key);
  request.token = std::move(token);
  return request;
}

TEST(KvService, CoveredRequestsServeImmediately) {
  ServiceFixture fx;
  kv::OpRequest put;
  put.type = kv::MsgType::kPut;
  put.session = 7;
  put.request = 1;
  put.key = "k";
  put.value = "v";
  put.token = kv::ContextToken::zero(2, 2);
  fx.send(put);
  ASSERT_EQ(fx.replies.size(), 1u);
  const kv::OpResponse put_reply = fx.last_reply();
  EXPECT_EQ(put_reply.status, kv::Status::kOk);
  // The response frontier covers the put itself (local delivery is
  // synchronous): an immediate same-session read-your-write is covered.
  EXPECT_GE(put_reply.frontier.seqs[0], 1u);
  kv::ContextToken token = kv::ContextToken::zero(2, 2);
  token.merge_shard(0, put_reply.frontier);
  fx.send(get_request("k", token, 2));
  ASSERT_EQ(fx.replies.size(), 2u);
  const kv::OpResponse get_reply = fx.last_reply();
  EXPECT_EQ(get_reply.status, kv::Status::kOk);
  EXPECT_TRUE(get_reply.present);
  EXPECT_EQ(get_reply.value, "v");
  EXPECT_EQ(fx.service->stats().context_waits, 0u);
  // The served get was recorded with its same-shard context deps.
  ASSERT_EQ(fx.recorded_gets.size(), 1u);
  EXPECT_FALSE(fx.recorded_gets[0].deps.empty());
  EXPECT_GE(fx.recorded_gets[0].origin, kv::kGetOriginBase);
}

TEST(KvService, StaleReadParksUntilTheFrontierCoversIt) {
  ServiceFixture fx;
  // The session's token says replica 1 of this shard delivered one op —
  // observed through ANOTHER session (cross-shard adoption); this replica
  // has seen nothing yet, so the read must wait, not serve stale.
  kv::ContextToken token = kv::ContextToken::zero(2, 2);
  token.shards[0].seqs = {0, 1};
  fx.send(get_request("k", token));
  EXPECT_EQ(fx.replies.size(), 0u);
  EXPECT_EQ(fx.service->parked(), 1u);
  EXPECT_EQ(fx.service->stats().context_waits, 1u);
  // Replica 1 broadcasts the put the token promised; once it reaches this
  // replica, on_delivery() wakes the parked read — which now observes it.
  fx.group.node(1).submit(apps::KvStore::put("k", "fresh"));
  fx.env.run();
  fx.service->on_delivery();
  ASSERT_EQ(fx.replies.size(), 1u);
  const kv::OpResponse reply = fx.last_reply();
  EXPECT_EQ(reply.status, kv::Status::kOk);
  EXPECT_TRUE(reply.present);
  EXPECT_EQ(reply.value, "fresh");
  EXPECT_EQ(fx.service->parked(), 0u);
  EXPECT_EQ(fx.service->stats().context_timeouts, 0u);
}

TEST(KvService, ExpiredParkIsRefusedNeverServed) {
  ServiceFixture fx(/*wait_timeout_us=*/1000);
  kv::ContextToken token = kv::ContextToken::zero(2, 2);
  token.shards[0].seqs = {0, 5};  // a frontier this shard may never reach
  fx.send(get_request("k", token));
  EXPECT_EQ(fx.service->parked(), 1u);
  // Before the deadline, poll() keeps it parked.
  fx.now_us = 999;
  fx.service->poll();
  EXPECT_EQ(fx.service->parked(), 1u);
  EXPECT_TRUE(fx.replies.empty());
  // Past the deadline: kRetry, not a stale value — and nothing recorded.
  fx.now_us = 2000;
  fx.service->poll();
  EXPECT_EQ(fx.service->parked(), 0u);
  ASSERT_EQ(fx.replies.size(), 1u);
  EXPECT_EQ(fx.last_reply().status, kv::Status::kRetry);
  EXPECT_EQ(fx.service->stats().context_timeouts, 1u);
  EXPECT_TRUE(fx.recorded_gets.empty());
  EXPECT_EQ(fx.service->stats().gets, 0u);
}

TEST(KvService, TokensAboutOtherShardsNeverBlockThisShard) {
  // §5.2: no causal metadata crosses shards. A token demanding an
  // arbitrarily advanced frontier on ANOTHER shard is this shard's
  // business only through its own entry — the request serves immediately.
  ServiceFixture fx;
  kv::ContextToken token = kv::ContextToken::zero(2, 2);
  token.shards[1].seqs = {1000, 1000};
  fx.send(get_request("k", token));
  ASSERT_EQ(fx.replies.size(), 1u);
  EXPECT_EQ(fx.last_reply().status, kv::Status::kOk);
  EXPECT_FALSE(fx.last_reply().present);
  EXPECT_EQ(fx.service->stats().context_waits, 0u);
}

TEST(KvService, MalformedAndClientBoundPayloadsAreCountedNotFatal) {
  ServiceFixture fx;
  fx.service->handle(1, std::vector<std::uint8_t>{});
  fx.service->handle(1, std::vector<std::uint8_t>{0xFF, 0x00});
  // A response type on the server socket is malformed by direction.
  fx.service->handle(1, kv::encode_op_response(kv::OpResponse{}));
  EXPECT_EQ(fx.service->stats().malformed, 3u);
  EXPECT_TRUE(fx.replies.empty());
  // Map exchange still answers with this replica's identity afterwards.
  fx.service->handle(1, kv::encode_map_request({.nonce = 5}));
  ASSERT_EQ(fx.replies.size(), 1u);
  const auto parsed = kv::parse_map_response(fx.replies.back().second);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->nonce, 5u);
  EXPECT_EQ(parsed->shards, 2u);
  EXPECT_EQ(parsed->replicas, 2u);
}

TEST(KvService, ShutdownWaitsForItsTokenToo) {
  ServiceFixture fx;
  kv::OpRequest shutdown;
  shutdown.type = kv::MsgType::kShutdown;
  shutdown.session = 7;
  shutdown.request = 1;
  shutdown.token = kv::ContextToken::zero(2, 2);
  shutdown.token.shards[0].seqs = {0, 1};
  fx.send(shutdown);
  // Context-consistent shutdown: the drain flag must not raise before
  // every op the session observed has been delivered here.
  EXPECT_FALSE(fx.service->drain_requested());
  EXPECT_EQ(fx.service->parked(), 1u);
  fx.group.node(1).submit(apps::KvStore::put("k", "v"));
  fx.env.run();
  fx.service->on_delivery();
  EXPECT_TRUE(fx.service->drain_requested());
  ASSERT_EQ(fx.replies.size(), 1u);
  EXPECT_EQ(fx.last_reply().status, kv::Status::kOk);
}

}  // namespace
}  // namespace cbc
