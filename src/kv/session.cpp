#include "kv/session.h"

#include <chrono>
#include <utility>

#include "util/ensure.h"

namespace cbc::kv {

namespace {

using Clock = std::chrono::steady_clock;

std::vector<net::ClusterConfig> shard_configs(const KvLayout& layout) {
  std::vector<net::ClusterConfig> configs;
  configs.reserve(layout.shards);
  for (std::size_t shard = 0; shard < layout.shards; ++shard) {
    configs.push_back(layout.shard_config(shard));
  }
  return configs;
}

std::vector<sockaddr_in> router_slots(
    const std::vector<net::ClusterConfig>& configs, NodeId slot) {
  std::vector<sockaddr_in> addresses;
  addresses.reserve(configs.size());
  for (const net::ClusterConfig& config : configs) {
    addresses.push_back(config.sockaddr_of(slot));
  }
  return addresses;
}

}  // namespace

KvClient::KvClient(KvLayout layout, Options options)
    : layout_(std::move(layout)),
      map_(layout_.shards == 0 ? 1 : layout_.shards),
      options_(options),
      configs_(shard_configs(layout_)),
      oob_(router_slots(configs_, layout_.router_slot())) {
  require(layout_.shards >= 1 && layout_.replicas >= 1,
          "kv client: layout must have at least one shard and one replica");
  require(options_.exchange_timeout_ms > 0,
          "kv client: timeouts must be positive");
}

bool KvClient::map_exchange(std::size_t shard, std::size_t rank,
                            std::uint64_t nonce, std::int64_t timeout_ms) {
  MapRequest request;
  request.nonce = nonce;
  std::optional<MapResponse> response;
  const auto matches = [&](std::span<const std::uint8_t> payload) {
    response = parse_map_response(payload);
    return response.has_value() && response->nonce == nonce;
  };
  const net::OobClient::Outcome outcome = oob_.exchange(
      shard, configs_[shard].sockaddr_of(static_cast<NodeId>(rank)),
      encode_map_request(request), std::chrono::milliseconds(timeout_ms),
      matches);
  stats_.stray_datagrams += outcome.strays;
  // Shape disagreement is a deployment bug, not a transient: fail.
  return outcome.answered && response->shards == layout_.shards &&
         response->replicas == layout_.replicas && response->shard == shard &&
         response->rank == rank;
}

bool KvClient::wait_ready(std::int64_t timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::uint64_t nonce = 1;
  for (std::size_t shard = 0; shard < layout_.shards; ++shard) {
    for (std::size_t rank = 0; rank < layout_.replicas; ++rank) {
      bool ready = false;
      while (!ready && Clock::now() < deadline) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count();
        const std::int64_t slice =
            left < options_.exchange_timeout_ms ? left
                                                : options_.exchange_timeout_ms;
        if (slice <= 0) {
          break;
        }
        ready = map_exchange(shard, rank, nonce++, slice);
      }
      if (!ready) {
        return false;
      }
    }
  }
  return true;
}

std::optional<OpResponse> KvClient::exchange(std::size_t shard,
                                             std::size_t rank,
                                             const OpRequest& request) {
  ++stats_.exchanges;
  std::optional<OpResponse> response;
  const auto matches = [&](std::span<const std::uint8_t> payload) {
    // A stale resend echo or foreign traffic does not match.
    response = parse_op_response(payload);
    return response.has_value() && response->session == request.session &&
           response->request == request.request;
  };
  const net::OobClient::Outcome outcome = oob_.exchange(
      shard, configs_[shard].sockaddr_of(static_cast<NodeId>(rank)),
      encode_op_request(request),
      std::chrono::milliseconds(options_.exchange_timeout_ms), matches);
  stats_.resends += outcome.resends;
  stats_.stray_datagrams += outcome.strays;
  if (!outcome.answered) {
    ++stats_.exchange_timeouts;
    return std::nullopt;
  }
  return response;
}

KvSession::KvSession(KvClient& client, std::uint64_t id)
    : client_(client),
      id_(id),
      token_(ContextToken::zero(client.layout().shards,
                                client.layout().replicas)) {}

std::optional<OpResponse> KvSession::run(OpRequest request, std::size_t shard,
                                         std::size_t rank) {
  request.session = id_;
  request.request = next_request_++;
  request.token = token_;
  // kRetry means the replica refused to serve a causally-stale request
  // before its wait deadline; keep re-sending (same request id, so late
  // duplicate refusals still match) until the shard catches up. The bound
  // only guards against a permanently wedged shard.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::optional<OpResponse> response =
        client_.exchange(shard, rank, request);
    if (!response.has_value()) {
      return std::nullopt;  // exchange() already re-sent until its deadline
    }
    if (response->status == Status::kRetry) {
      ++retries_;
      continue;
    }
    token_.merge_shard(static_cast<std::size_t>(response->shard),
                       response->frontier);
    return response;
  }
  return std::nullopt;
}

bool KvSession::put(const std::string& key, const std::string& value) {
  const std::size_t shard = client_.map().shard_of(key);
  const std::size_t rank = round_robin_++ % client_.layout().replicas;
  OpRequest request;
  request.type = MsgType::kPut;
  request.key = key;
  request.value = value;
  return run(std::move(request), shard, rank).has_value();
}

std::optional<KvSession::GetResult> KvSession::get(const std::string& key) {
  const std::size_t shard = client_.map().shard_of(key);
  const std::size_t rank = round_robin_++ % client_.layout().replicas;
  OpRequest request;
  request.type = MsgType::kGet;
  request.key = key;
  const std::optional<OpResponse> response =
      run(std::move(request), shard, rank);
  if (!response.has_value()) {
    return std::nullopt;
  }
  GetResult result;
  result.present = response->present;
  result.value = response->value;
  return result;
}

std::optional<std::uint64_t> KvSession::fence(std::size_t shard) {
  const std::size_t rank = round_robin_++ % client_.layout().replicas;
  OpRequest request;
  request.type = MsgType::kFence;
  const std::optional<OpResponse> response =
      run(std::move(request), shard, rank);
  if (!response.has_value()) {
    return std::nullopt;
  }
  return response->fence_digest;
}

bool KvSession::shutdown(std::size_t shard, std::size_t rank) {
  OpRequest request;
  request.type = MsgType::kShutdown;
  return run(std::move(request), shard, rank).has_value();
}

}  // namespace cbc::kv
