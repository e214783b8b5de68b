#include "kv/kv_service.h"

#include <utility>

#include "apps/kv_store.h"
#include "obs/flight_recorder.h"
#include "time/vector_clock.h"
#include "util/ensure.h"

namespace cbc::kv {

KvService::KvService(Replica& replica, ReplyFn reply, NowFn now,
                     Options options)
    : replica_(replica),
      reply_(std::move(reply)),
      now_(std::move(now)),
      options_(std::move(options)) {
  require(static_cast<bool>(reply_) && static_cast<bool>(now_),
          "KvService: reply and now callbacks are required");
  require(options_.shards >= 1 && options_.shard < options_.shards,
          "KvService: shard out of range");
  require(options_.replicas >= 1 && options_.rank < options_.replicas,
          "KvService: rank out of range");
  require(options_.wait_timeout_us > 0,
          "KvService: wait timeout must be positive");
  if (options_.obs.prefix.empty()) {
    options_.obs.prefix = "kv";
  }
  if (options_.obs.any()) {
    wait_hist_ = &options_.obs.metrics->histogram(options_.obs.prefix +
                                                  ".context_wait_us");
    collector_ = options_.obs.metrics->register_collector(
        [this](obs::CollectorSink& sink) {
          const Stats& s = stats_;
          const std::string& prefix = options_.obs.prefix;
          sink.counter(prefix + ".requests", s.requests);
          sink.counter(prefix + ".malformed", s.malformed);
          sink.counter(prefix + ".puts", s.puts);
          sink.counter(prefix + ".gets", s.gets);
          sink.counter(prefix + ".fences", s.fences);
          sink.counter(prefix + ".context_waits", s.context_waits);
          sink.counter(prefix + ".context_timeouts", s.context_timeouts);
          sink.counter(prefix + ".shutdowns", s.shutdowns);
          sink.gauge(prefix + ".parked", static_cast<double>(parked_.size()));
        });
  }
}

ShardFrontier KvService::frontier() const {
  const VectorClock& prefix = replica_.osend().delivered_prefix();
  ShardFrontier result;
  result.seqs.resize(options_.replicas, 0);
  for (std::size_t rank = 0; rank < options_.replicas; ++rank) {
    result.seqs[rank] = prefix.at(static_cast<NodeId>(rank));
  }
  return result;
}

bool KvService::covered(const OpRequest& request) const {
  if (request.token.shards.size() <= options_.shard) {
    return true;  // token carries nothing about this shard
  }
  return frontier().covers(request.token.shards[options_.shard]);
}

void KvService::handle(NodeId from, std::span<const std::uint8_t> payload) {
  const std::optional<MsgType> type = peek_type(payload);
  if (!type.has_value()) {
    ++stats_.malformed;
    return;
  }
  if (*type == MsgType::kMapRequest) {
    const std::optional<MapRequest> request = parse_map_request(payload);
    if (!request.has_value()) {
      ++stats_.malformed;
      return;
    }
    ++stats_.requests;
    MapResponse response;
    response.nonce = request->nonce;
    response.shards = options_.shards;
    response.replicas = options_.replicas;
    response.shard = options_.shard;
    response.rank = options_.rank;
    reply_(from, encode_map_response(response));
    return;
  }
  if (*type == MsgType::kMapResponse || *type == MsgType::kResponse) {
    ++stats_.malformed;  // client-bound message on a server socket
    return;
  }
  const std::optional<OpRequest> request = parse_op_request(payload);
  if (!request.has_value()) {
    ++stats_.malformed;
    return;
  }
  ++stats_.requests;
  const std::int64_t arrived = now_();
  if (covered(*request)) {
    serve(from, *request, arrived);
    drain_parked();  // serving a put/fence advances the frontier
    return;
  }
  ++stats_.context_waits;
  // Flight id: the client node plus its per-session request seq — unique
  // enough to chase one stalled request through a postmortem.
  obs::flight_record(obs::FlightEvent::kKvPark,
                     MessageId{from, request->request}, request->session);
  parked_.push_back(
      {from, *request, arrived, arrived + options_.wait_timeout_us});
}

void KvService::on_delivery() { drain_parked(); }

void KvService::poll() {
  drain_parked();
  const std::int64_t now = now_();
  for (std::size_t i = 0; i < parked_.size();) {
    if (parked_[i].deadline_us > now) {
      ++i;
      continue;
    }
    const Parked entry = std::move(parked_[i]);
    parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
    ++stats_.context_timeouts;
    // The causally-stale request is refused, never served: the client
    // re-sends until this shard catches up.
    OpResponse response;
    response.session = entry.request.session;
    response.request = entry.request.request;
    response.status = Status::kRetry;
    response.shard = options_.shard;
    response.frontier = frontier();
    reply_(entry.from, encode_op_response(response));
  }
}

void KvService::drain_parked() {
  if (draining_) {
    return;  // re-entered from a submit's synchronous local delivery
  }
  draining_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      if (!covered(parked_[i].request)) {
        continue;
      }
      const Parked entry = std::move(parked_[i]);
      parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
      const std::int64_t waited = now_() - entry.arrived_us;
      obs::flight_record(
          obs::FlightEvent::kKvDrain,
          MessageId{entry.from, entry.request.request},
          static_cast<std::uint64_t>(waited < 0 ? 0 : waited));
      serve(entry.from, entry.request, entry.arrived_us);
      progress = true;
      break;  // indices shifted; rescan with the advanced frontier
    }
  }
  draining_ = false;
}

void KvService::record_wait(std::int64_t arrived_us) {
  if (wait_hist_ != nullptr) {
    const std::int64_t waited = now_() - arrived_us;
    wait_hist_->record(static_cast<double>(waited < 0 ? 0 : waited));
  }
}

void KvService::serve(NodeId from, const OpRequest& request,
                      std::int64_t arrived_us) {
  record_wait(arrived_us);
  OpResponse response;
  response.session = request.session;
  response.request = request.request;
  response.status = Status::kOk;
  response.shard = options_.shard;
  switch (request.type) {
    case MsgType::kPut: {
      ++stats_.puts;
      replica_.submit(apps::KvStore::put(request.key, request.value));
      break;
    }
    case MsgType::kGet: {
      ++stats_.gets;
      const object::Op op = apps::KvStore::get(request.key);
      // Session-local read: applied on a copy, never broadcast — the
      // replica's own state (and its cross-replica digest) is untouched.
      object::Value observer = replica_.state();
      Reader args(op.args);
      const std::vector<std::uint8_t> bytes = observer.apply("get", args);
      Reader decoded(bytes);
      response.present = decoded.boolean();
      response.value = decoded.str();
      if (options_.record_get) {
        options_.record_get(get_history_op(request, op, bytes));
      }
      break;
    }
    case MsgType::kFence: {
      ++stats_.fences;
      const object::Op op =
          apps::KvStore::fence(options_.shard, options_.shards);
      replica_.submit(op);
      // State-inert: the digest computed now equals the fence's response
      // at its (just-completed) local application.
      object::Value observer = replica_.state();
      Reader args(op.args);
      const std::vector<std::uint8_t> bytes = observer.apply("fence", args);
      Reader digest(bytes);
      response.fence_digest = digest.u64();
      break;
    }
    case MsgType::kShutdown: {
      ++stats_.shutdowns;
      drain_requested_ = true;
      break;
    }
    default:
      break;
  }
  response.frontier = frontier();
  reply_(from, encode_op_response(response));
}

check::HistoryOp KvService::get_history_op(
    const OpRequest& request, const object::Op& op,
    const std::vector<std::uint8_t>& response_bytes) {
  check::HistoryOp record;
  const NodeId origin =
      kGetOriginBase +
      static_cast<NodeId>(
          (request.session * options_.shards + options_.shard) *
              options_.replicas) +
      options_.rank;
  record.id = MessageId{origin, ++session_get_seq_[request.session]};
  record.origin = origin;
  record.label = "get#s" + std::to_string(request.session) + "." +
                 std::to_string(record.id.seq);
  record.args = op.args;
  record.response = response_bytes;
  // Same-shard context deps only: the edges the wait must have enforced.
  // Cross-shard entries of the token are deliberately NOT asserted — no
  // causal metadata crosses shards (§5.2); cross-shard causality is
  // carried by token adoption enlarging these same-shard frontiers.
  if (request.token.shards.size() > options_.shard) {
    const ShardFrontier& want = request.token.shards[options_.shard];
    for (std::size_t rank = 0;
         rank < want.seqs.size() && rank < options_.replicas; ++rank) {
      if (want.seqs[rank] == 0) {
        continue;
      }
      record.deps.push_back(
          MessageId{shard_origin(options_.shard, options_.replicas,
                                 static_cast<NodeId>(rank)),
                    want.seqs[rank]});
    }
  }
  return record;
}

}  // namespace cbc::kv
