// Client side of the sharded kv service: a blocking UDP router/client
// plus the per-session context layer.
//
// KvClient is the front-end manager's network half: it binds each
// shard's *router slot* (a config entry the shard's replicas can
// address, deliberately outside the causal group view) and exchanges kv
// wire messages with replicas as out-of-band payloads, through the same
// net::OobClient that fault::fetch_checkpoint_blocking uses. It is
// single-threaded by design: one driver process owns the deployment's
// router slots.
//
// KvSession is the §5.2 story: every operation carries the session's
// context token, every kOk response folds the serving shard's updated
// frontier back into it, so a later read on ANY shard waits (server-
// side) until that shard has caught up with what this session already
// observed there. adopt() transfers a whole token between sessions —
// the paper's "context passes with the data" — which is how causal
// chains that hop sessions stay readable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kv/shard_map.h"
#include "kv/wire.h"
#include "net/oob_client.h"

namespace cbc::kv {

/// Blocking per-deployment UDP client; owns one socket per shard, bound
/// at the shard's router slot. Not thread-safe (one driver, serial ops).
class KvClient {
 public:
  struct Options {
    std::int64_t exchange_timeout_ms = 5000;  ///< per exchange() deadline
  };

  struct Stats {
    std::uint64_t exchanges = 0;
    std::uint64_t resends = 0;
    std::uint64_t exchange_timeouts = 0;
    std::uint64_t stray_datagrams = 0;  ///< non-kv traffic on the socket
  };

  /// Binds every router slot; throws InvalidArgument when a bind fails
  /// (another driver already owns the deployment).
  KvClient(KvLayout layout, Options options);
  explicit KvClient(KvLayout layout) : KvClient(std::move(layout), Options{}) {}

  /// Blocks until every replica of every shard answers a map exchange
  /// agreeing on the deployment shape; false on timeout.
  [[nodiscard]] bool wait_ready(std::int64_t timeout_ms);

  /// Sends one op request to (shard, rank) and waits for the matching
  /// response, re-sending every OobClient::kResendPeriod; nullopt on
  /// deadline.
  [[nodiscard]] std::optional<OpResponse> exchange(std::size_t shard,
                                                   std::size_t rank,
                                                   const OpRequest& request);

  [[nodiscard]] const KvLayout& layout() const { return layout_; }
  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  [[nodiscard]] bool map_exchange(std::size_t shard, std::size_t rank,
                                  std::uint64_t nonce,
                                  std::int64_t timeout_ms);

  KvLayout layout_;
  ShardMap map_;
  Options options_;
  Stats stats_;
  std::vector<net::ClusterConfig> configs_;  // one per shard
  net::OobClient oob_;  // socket s is bound at shard s's router slot
};

/// One causal session over the sharded service: routes ops by key hash,
/// threads the context token through every request, retries kRetry
/// refusals (the server never serves a causally-stale read).
class KvSession {
 public:
  struct GetResult {
    bool present = false;
    std::string value;
  };

  KvSession(KvClient& client, std::uint64_t id);

  /// Routes to the owning shard; nullopt-like false on exchange failure.
  [[nodiscard]] bool put(const std::string& key, const std::string& value);
  [[nodiscard]] std::optional<GetResult> get(const std::string& key);

  /// Round-closing sync on one shard; returns the shard sub-map digest.
  [[nodiscard]] std::optional<std::uint64_t> fence(std::size_t shard);

  /// Drains one replica: the server waits for this session's token, acks,
  /// and raises its drain flag.
  [[nodiscard]] bool shutdown(std::size_t shard, std::size_t rank);

  [[nodiscard]] const ContextToken& context() const { return token_; }

  /// §5.2 token transfer: adopting another session's context is the ONLY
  /// way causality crosses sessions — pass it with the data.
  void adopt(const ContextToken& other) { token_.merge(other); }

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }

 private:
  [[nodiscard]] std::optional<OpResponse> run(OpRequest request,
                                              std::size_t shard,
                                              std::size_t rank);

  KvClient& client_;
  std::uint64_t id_;
  ContextToken token_;
  std::uint64_t next_request_ = 1;
  std::uint64_t round_robin_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace cbc::kv
