// cbc_node — one member of a replicated-object group over real UDP.
//
// The replicated object is chosen at runtime (--object counter|registry|
// document|card_game|set|queue — any catalog entry): the object's derived
// commutativity table drives the access protocol, its catalog workload
// hooks generate the round traffic, and its serialize hook feeds digests,
// checkpoints, and state transfer. Runs the full library stack in one
// process:
//
//   UdpTransport (kernel datagrams, EventLoop)
//     -> BatchingTransport (N frames per datagram)
//       -> OSendMember or ASendMember (reliability enabled)
//         -> check::InvariantChecker (digest + invariant assertions)
//           -> delivery tap (workload round tracking)
//             -> ReplicaNode<object::Value>
//
// The workload is round-structured so that stable-point digests are
// deterministic across members even though UDP reorders freely:
//   - every member submits `ops_per_round` FIFO-chained commutative ops
//     (the object's catalog workload hook), then a commutative `nop`
//     round marker (FIFO-chained after them);
//   - the leader (node 0) submits the round's closing sync op (the
//     object's catalog sync op — `rd` for the counter) only after
//     delivering every live member's marker — so the sync message's
//     Occurs_After set covers all of the round's commutative traffic;
//   - members start round r+1 only after delivering sync r.
// Cycle membership is therefore causally forced: any interleaving the
// network produces yields the same digest chain at every member.
//
// Signals:
//   SIGUSR1  graceful departure — broadcast a departing `nop` (which the
//            FIFO chain orders after everything this member sent), stop
//            submitting, keep serving retransmissions until SIGTERM;
//   SIGUSR2  dump a metrics snapshot (to --metrics-snapshot, else stderr);
//   SIGTERM  write the report file (and the trace, with --trace) and exit.
//
// Observability (all off by default; see docs/OBSERVABILITY.md):
//   --metrics-port P      serve Prometheus plaintext on 127.0.0.1:P off the
//                         event loop (0 picks an ephemeral port, written to
//                         the report as metrics_port=...);
//   --metrics-snapshot F  rewrite the metrics page to F every 250ms;
//   --trace F             per-envelope causal trace: at SIGTERM the flight
//                         ring (sized to kTraceRingRecords) is decoded to F
//                         as Chrome trace-event JSON, with Occurs_After
//                         edges joined from the recorded history's deps.
//
// --observer joins without submitting anything (a restarted member whose
// per-link reliability state died with its previous incarnation: it can
// observe traffic but cannot rejoin the causal past without state
// transfer).
//
// Robustness (see docs/ROBUSTNESS.md):
//   --fault-plan FILE     wrap the UDP transport in a deterministic
//                         ChaosTransport driven by the plan (drop/dup/
//                         delay/reorder per link, scripted partitions and
//                         crash points — a scripted local crash _Exit(137)s
//                         this process);
//   --checkpoint FILE     persist a Checkpoint atomically at every stable
//                         point, and serve it to recovering peers over the
//                         reliable layer's out-of-band frames;
//   --recover             SIGKILL recovery: fetch a live peer's latest
//                         checkpoint (pre-stack state transfer), restore
//                         the replica/checker/ordering state from it, and
//                         re-enter the round workload via a rejoin
//                         handshake with the leader;
//   --transfer-from N     peer to fetch the checkpoint from (default:
//                         the leader, or member 1 when recovering id 0);
//   --suspect-timeout-ms N  heartbeat failure detector: suspect a peer
//                         silent for N ms (0 = detector off, the default);
//                         the leader excludes suspected members from round
//                         closure so the workload outlives a crash;
//   --heartbeat-ms N      explicit heartbeat period on idle links
//                         (default: suspect timeout / 4);
//   --quiesce-at-round K  stop submitting after round K and write
//                         quiesced=1 to the progress file once every sent
//                         frame is acknowledged — the safe point for a
//                         harness to SIGKILL this member.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/install.h"
#include "causal/osend.h"
#include "check/history.h"
#include "check/invariant_checker.h"
#include "check/violation.h"
#include "fault/chaos_transport.h"
#include "fault/checkpoint.h"
#include "fault/fault_plan.h"
#include "fault/state_transfer.h"
#include "group/group_view.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/metrics_http.h"
#include "net/udp_transport.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "object/value.h"
#include "obs/flight_recorder.h"
#include "obs/hooks.h"
#include "obs/instrument_layer.h"
#include "obs/metrics.h"
#include "replica/replica_node.h"
#include "stack/protocol_layer.h"
#include "total/asend.h"
#include "transport/batching.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace {

/// Flight-ring capacity with --trace: room for about a million records,
/// a whole traced run (40 MB of slots, resident only once written).
constexpr std::size_t kTraceRingRecords = std::size_t{1} << 20;

volatile std::sig_atomic_t g_depart_requested = 0;
volatile std::sig_atomic_t g_terminate_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_depart_requested = 1; }
void on_sigterm(int) { g_terminate_requested = 1; }
void on_sigusr2(int) { g_dump_requested = 1; }

struct NodeArgs {
  std::string config_path;
  cbc::NodeId id = cbc::kNoNode;
  std::string object = "counter";  ///< catalog name of the replicated object
  std::uint64_t rounds = 10;
  std::uint64_t ops_per_round = 20;
  std::string record_history_path;  ///< write a SiteHistory here at SIGTERM
  std::string report_path;
  std::string progress_path;
  std::string discipline = "causal";  // or "total"
  bool observer = false;
  bool force_poll = false;
  int metrics_port = -1;  // -1 = no metrics endpoint; 0 = ephemeral
  std::string metrics_snapshot_path;
  std::string trace_path;
  std::string flight_path;  ///< file-backed flight ring (survives SIGKILL)

  // Robustness knobs (see the file comment).
  std::string fault_plan_path;
  std::string checkpoint_path;
  bool recover = false;
  cbc::NodeId transfer_from = cbc::kNoNode;
  std::int64_t heartbeat_ms = 0;
  std::int64_t suspect_timeout_ms = 0;
  std::int64_t quiesce_at_round = -1;

  [[nodiscard]] bool observability() const {
    return metrics_port >= 0 || !metrics_snapshot_path.empty() ||
           !trace_path.empty();
  }
};

void usage() {
  std::cerr
      << "usage: cbc_node --config FILE --id N [options]\n"
         "  --config FILE     cluster membership file (id host:port lines)\n"
         "  --id N            this member's id within the config\n"
         "  --object NAME     replicated object from the catalog (counter,\n"
         "                    registry, document, card_game, set, queue;\n"
         "                    default counter)\n"
         "  --record-history FILE  write this member's applied-operation\n"
         "                    history here at SIGTERM (cbc_check input)\n"
         "  --rounds R        workload rounds (default 10)\n"
         "  --ops K           commutative ops per member per round "
         "(default 20)\n"
         "  --report FILE     write the final key=value report here\n"
         "  --progress FILE   rewrite round progress here (for harnesses)\n"
         "  --discipline D    causal (OSend, default) or total (ASend)\n"
         "  --observer        join without submitting (restarted member)\n"
         "  --force-poll      use the poll event-loop backend\n"
         "  --metrics-port P  serve Prometheus plaintext on 127.0.0.1:P\n"
         "                    (0 = ephemeral; the report names the port)\n"
         "  --metrics-snapshot FILE  rewrite the metrics page here "
         "periodically\n"
         "  --trace FILE      write Chrome trace-event JSON here at "
         "SIGTERM\n"
         "  --flight FILE     back the always-on flight ring with FILE\n"
         "                    (survives SIGKILL; decode with cbc_flight)\n"
         "  --fault-plan FILE deterministic fault injection plan\n"
         "  --checkpoint FILE persist a checkpoint at every stable point\n"
         "  --recover         restore from a live peer's checkpoint and "
         "rejoin\n"
         "  --transfer-from N fetch the checkpoint from member N\n"
         "  --suspect-timeout-ms N  suspect peers silent for N ms\n"
         "  --heartbeat-ms N  heartbeat period on idle links\n"
         "  --quiesce-at-round K  stop submitting after round K; write\n"
         "                    quiesced=1 when all sent frames are acked\n";
}

NodeArgs parse_args(int argc, char** argv) {
  NodeArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      cbc::require(i + 1 < argc, "cbc_node: flag needs a value: " + flag);
      return argv[++i];
    };
    if (flag == "--config") {
      args.config_path = value();
    } else if (flag == "--id") {
      args.id = static_cast<cbc::NodeId>(std::stoul(value()));
    } else if (flag == "--object") {
      args.object = value();
    } else if (flag == "--record-history") {
      args.record_history_path = value();
    } else if (flag == "--rounds") {
      args.rounds = std::stoull(value());
    } else if (flag == "--ops") {
      args.ops_per_round = std::stoull(value());
    } else if (flag == "--report") {
      args.report_path = value();
    } else if (flag == "--progress") {
      args.progress_path = value();
    } else if (flag == "--discipline") {
      args.discipline = value();
    } else if (flag == "--observer") {
      args.observer = true;
    } else if (flag == "--force-poll") {
      args.force_poll = true;
    } else if (flag == "--metrics-port") {
      args.metrics_port = std::stoi(value());
      cbc::require(args.metrics_port >= 0 && args.metrics_port <= 65535,
                   "cbc_node: --metrics-port out of range");
    } else if (flag == "--metrics-snapshot") {
      args.metrics_snapshot_path = value();
    } else if (flag == "--trace") {
      args.trace_path = value();
    } else if (flag == "--flight") {
      args.flight_path = value();
    } else if (flag == "--fault-plan") {
      args.fault_plan_path = value();
    } else if (flag == "--checkpoint") {
      args.checkpoint_path = value();
    } else if (flag == "--recover") {
      args.recover = true;
    } else if (flag == "--transfer-from") {
      args.transfer_from = static_cast<cbc::NodeId>(std::stoul(value()));
    } else if (flag == "--suspect-timeout-ms") {
      args.suspect_timeout_ms = std::stoll(value());
      cbc::require(args.suspect_timeout_ms > 0,
                   "cbc_node: --suspect-timeout-ms must be positive");
    } else if (flag == "--heartbeat-ms") {
      args.heartbeat_ms = std::stoll(value());
      cbc::require(args.heartbeat_ms > 0,
                   "cbc_node: --heartbeat-ms must be positive");
    } else if (flag == "--quiesce-at-round") {
      args.quiesce_at_round = std::stoll(value());
      cbc::require(args.quiesce_at_round >= 0,
                   "cbc_node: --quiesce-at-round must be >= 0");
    } else {
      usage();
      cbc::require(false, "cbc_node: unknown flag: " + flag);
    }
  }
  cbc::require(!args.config_path.empty(), "cbc_node: --config is required");
  cbc::require(args.id != cbc::kNoNode, "cbc_node: --id is required");
  cbc::require(args.discipline == "causal" || args.discipline == "total",
               "cbc_node: --discipline must be causal or total");
  if (args.recover) {
    cbc::require(args.discipline == "causal",
                 "cbc_node: --recover requires the causal discipline");
    cbc::require(!args.observer, "cbc_node: --recover excludes --observer");
    cbc::require(args.id != 0,
                 "cbc_node: leader recovery is not supported (ROADMAP)");
  }
  if (!args.checkpoint_path.empty()) {
    cbc::require(args.discipline == "causal",
                 "cbc_node: --checkpoint requires the causal discipline");
  }
  if (args.quiesce_at_round >= 0) {
    cbc::require(args.discipline == "causal",
                 "cbc_node: --quiesce-at-round requires the causal "
                 "discipline");
  }
  return args;
}

/// Atomic (tmp + rename) key=value file write, so a harness polling the
/// path never reads a partial file. The tmp name carries the pid so two
/// incarnations racing over one path (a crashed member and its restart)
/// can never interleave writes into one torn tmp file.
void write_kv_file(const std::string& path,
                   const std::vector<std::pair<std::string, std::string>>& kv) {
  if (path.empty()) {
    return;
  }
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const auto& [key, value] : kv) {
      out << key << "=" << value << "\n";
    }
  }
  std::rename(tmp.c_str(), path.c_str());
}

std::string hex64(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// Transparent layer that lets the workload observe deliveries (round
/// markers, departures, sync ops) between the checker and the replica.
class DeliveryTap final : public cbc::ProtocolLayer {
 public:
  using InspectFn = std::function<void(const cbc::Delivery&)>;

  DeliveryTap(std::unique_ptr<cbc::BroadcastMember> lower, InspectFn inspect)
      : ProtocolLayer(std::move(lower)), inspect_(std::move(inspect)) {}

 protected:
  void on_lower_delivery(const cbc::Delivery& delivery) override {
    inspect_(delivery);
    deliver_up(delivery);
  }

 private:
  InspectFn inspect_;
};

cbc::net::UdpTransport::Options make_udp_options(cbc::NodeId id,
                                                 cbc::obs::Hooks obs) {
  cbc::net::UdpTransport::Options options;
  options.local_ids = {id};
  options.obs = std::move(obs);
  return options;
}

cbc::BatchingTransport::Options make_batching_options(cbc::obs::Hooks obs) {
  cbc::BatchingTransport::Options options;
  options.obs = std::move(obs);
  return options;
}

/// Everything one node process owns, wired bottom-up.
class Node {
 public:
  Node(const NodeArgs& args, cbc::net::ClusterConfig config,
       std::optional<cbc::fault::Checkpoint> recovered)
      : args_(args),
        config_(std::move(config)),
        loop_(cbc::net::EventLoop::Options{.force_poll = args.force_poll,
                                           .wheel = {}}),
        udp_(loop_, config_, make_udp_options(args.id, hooks("udp"))),
        chaos_(make_chaos()),
        batching_(chaos_ != nullptr ? static_cast<cbc::Transport&>(*chaos_)
                                    : static_cast<cbc::Transport&>(udp_),
                  make_batching_options(hooks("batch"))),
        view_(1, config_.to_view()),
        log_(std::make_shared<cbc::check::ViolationLog>()),
        marker_count_(config_.size(), 0),
        departed_(config_.size(), false),
        recovered_(std::move(recovered)) {
    // Resolve the replicated object and derive its commutativity table
    // from the sequential spec — the same table every member derives.
    {
      const auto entry = cbc::object::Catalog::instance().find(args_.object);
      cbc::require(entry.has_value(),
                   "cbc_node: unknown --object '" + args_.object + "'");
      entry_ = *entry;
    }
    const cbc::CommutativitySpec derived =
        cbc::object::derive_commutativity(entry_.spec());
    sync_kind_ = entry_.sync_op.kind;
    // Checkpoints are captured at the sync's delivery tap, before the
    // replica applies it — only sound when the sync op is state-inert.
    // Probe that instead of trusting a label.
    {
      const std::unique_ptr<cbc::object::ReplicatedObject> probe =
          entry_.make();
      const std::unique_ptr<cbc::object::ReplicatedObject> before =
          probe->clone();
      cbc::Reader sync_args(entry_.sync_op.args);
      probe->apply(sync_kind_, sync_args);
      sync_inert_ = probe->equals(*before);
    }
    cbc::require(sync_inert_ || !checkpoints_enabled(),
                 "cbc_node: --checkpoint/--recover require a state-inert "
                 "sync op; object '" + args_.object + "' closes rounds "
                 "with mutating '" + sync_kind_ + "'");
    if (args_.observability()) {
      recovery_checkpoints_ =
          &registry_.counter("recovery.checkpoints_written");
      recovery_transfers_ = &registry_.counter("recovery.transfers_served");
      recovery_restored_ = &registry_.gauge("recovery.restored_cycles");
    }
    // The flight ring is process-global and always on; export its
    // occupancy whenever anything scrapes this registry.
    flight_collector_ =
        registry_.register_collector([](cbc::obs::CollectorSink& sink) {
          if (cbc::obs::FlightRecorder* recorder =
                  cbc::obs::flight_recorder()) {
            sink.counter("flight.records", recorder->total_recorded());
            sink.gauge("flight.capacity",
                       static_cast<double>(recorder->capacity()));
          }
        });
    // Ordering member: register on the batching decorator so every frame
    // (data, acks, retransmissions) rides the batch framing.
    std::unique_ptr<cbc::BroadcastMember> member;
    if (args_.discipline == "causal") {
      cbc::OSendMember::Options options;
      configure_reliability(options.reliability);
      options.obs = hooks("osend");
      member = std::make_unique<cbc::OSendMember>(
          batching_, view_, [](const cbc::Delivery&) {}, options);
    } else {
      cbc::ASendMember::Options options;
      configure_reliability(options.reliability);
      options.obs = hooks("asend");
      member = std::make_unique<cbc::ASendMember>(
          batching_, view_, [](const cbc::Delivery&) {}, options);
    }
    if (args_.observability()) {
      member = std::make_unique<cbc::obs::InstrumentationLayer>(
          std::move(member),
          cbc::obs::InstrumentationLayer::Options{hooks("stack")});
    }

    cbc::check::InvariantChecker::Options check_options;
    check_options.obs = hooks("check");
    check_options.expect_total_order = args_.discipline == "total";
    check_options.stable_spec = derived;
    // Round markers are ordered relative to the sync chain by the barrier
    // protocol, but a departure nop races the in-flight sync and can land
    // in different stable cycles at different members. Nops are state-
    // inert, so exempt the whole kind from the digest: it then covers
    // exactly the state-affecting history, which IS deterministic.
    check_options.digest_exempt_kinds = {"nop"};
    auto checker = std::make_unique<cbc::check::InvariantChecker>(
        std::move(member), log_, check_options);
    checker_ = checker.get();

    auto tap = std::make_unique<DeliveryTap>(
        std::move(checker),
        [this](const cbc::Delivery& delivery) { on_delivery(delivery); });

    replica_ = std::make_unique<cbc::ReplicaNode<cbc::object::Value>>(
        std::move(tap), derived,
        cbc::FrontEndManager::Options{.fifo_chain = true},
        cbc::object::Value(entry_.make()));
    // One (id, deps, ...) buffer serves both the cbc_check history and
    // the Occurs_After edges of --trace.
    if (!args_.record_history_path.empty() || !args_.trace_path.empty()) {
      replica_->set_apply_observer(
          [this](const cbc::Delivery& delivery,
                 const std::vector<std::uint8_t>& response) {
            cbc::check::HistoryOp op;
            op.id = delivery.id;
            op.origin = delivery.sender;
            op.label = delivery.label();
            const auto payload = delivery.payload();
            op.args.assign(payload.begin(), payload.end());
            op.deps = delivery.deps().ids();
            op.response = response;
            history_.push_back(std::move(op));
          });
    }

    if (args_.metrics_port >= 0) {
      cbc::net::MetricsHttpServer::Options http_options;
      http_options.port = static_cast<std::uint16_t>(args_.metrics_port);
      metrics_http_ = std::make_unique<cbc::net::MetricsHttpServer>(
          loop_, registry_, http_options);
    }
    if (checkpoints_enabled() && !args_.observer) {
      // Start acknowledging nothing: a frame is only ever acked once a
      // flushed checkpoint covers it, so senders retain (and a restored
      // incarnation can recover) everything in between stable points.
      for (std::size_t m = 0; m < config_.size(); ++m) {
        if (m != args_.id) {
          replica_->osend().set_ack_ceiling(static_cast<cbc::NodeId>(m), 0);
        }
      }
    }
    if (recovered_.has_value()) {
      restore_from_checkpoint();
    }
  }

  int run() {
    loop_.post([this] { pump(); });
    arm_tick();
    arm_snapshot();
    loop_.run();
    return 0;
  }

 private:
  [[nodiscard]] bool is_leader() const {
    return args_.id == 0 && !args_.observer;
  }

  [[nodiscard]] std::unique_ptr<cbc::fault::ChaosTransport> make_chaos() {
    if (args_.fault_plan_path.empty()) {
      return nullptr;
    }
    cbc::fault::ChaosTransport::Options options;
    options.plan = cbc::fault::FaultPlan::load(args_.fault_plan_path);
    options.local_node = args_.id;
    // A scripted crash is a SIGKILL equivalent: no destructors, no report
    // — the harness relaunches with --recover. The flight ring is the
    // only thing persisted (dump() is async-signal-safe; for a
    // file-backed ring it is just a flush of what already survives).
    options.on_crash = [] {
      if (cbc::obs::FlightRecorder* recorder = cbc::obs::flight_recorder()) {
        recorder->dump();
      }
      std::_Exit(137);
    };
    options.obs = hooks("fault");
    return std::make_unique<cbc::fault::ChaosTransport>(udp_,
                                                        std::move(options));
  }

  void configure_reliability(cbc::ReliableEndpoint::Options& reliability) {
    reliability.enabled = true;
    reliability.obs = hooks("reliable");
    if (args_.suspect_timeout_ms > 0) {
      reliability.suspect_after_us = args_.suspect_timeout_ms * 1000;
      if (args_.heartbeat_ms > 0) {
        reliability.heartbeat_interval_us = args_.heartbeat_ms * 1000;
      }
      reliability.on_liveness = [this](cbc::NodeId peer, bool alive) {
        on_liveness(peer, alive);
      };
    }
    if (args_.discipline == "causal") {
      reliability.oob_handler =
          [this](cbc::NodeId from, std::span<const std::uint8_t> payload) {
            on_oob(from, payload);
          };
    }
  }

  /// Loop thread (reliability timers run on the event loop). The leader
  /// treats a suspected member like a departed one for round closure —
  /// rounds keep closing across a crash — and reverses that the moment
  /// the peer is heard again (or explicitly re-admitted).
  void on_liveness(cbc::NodeId peer, bool alive) {
    if (is_leader() && peer < departed_.size()) {
      departed_[peer] = !alive;
    }
    loop_.post([this] { pump(); });
  }

  /// Serves a recovering peer's StateRequest with the latest stable-point
  /// checkpoint, over the reliable layer's out-of-band frames.
  void on_oob(cbc::NodeId from, std::span<const std::uint8_t> payload) {
    if (!cbc::fault::parse_state_request(payload).has_value() ||
        !latest_checkpoint_.has_value()) {
      return;
    }
    replica_->osend().send_oob(
        from, cbc::fault::encode_state_response(*latest_checkpoint_));
    if (recovery_transfers_ != nullptr) {
      recovery_transfers_->inc();
    }
  }

  /// Rebuilds local state from a live peer's transferred checkpoint, then
  /// marks this member as awaiting the leader's admission. Stable-point
  /// agreement makes the peer's chain interchangeable with our own lost
  /// one — asserted against any pre-crash checkpoint left on disk.
  void restore_from_checkpoint() {
    std::optional<cbc::fault::Checkpoint> own;
    if (!args_.checkpoint_path.empty()) {
      try {
        own = cbc::fault::Checkpoint::load(args_.checkpoint_path);
      } catch (const cbc::InvalidArgument&) {
        // No readable pre-crash checkpoint — nothing to cross-check.
      }
    }
    if (own.has_value()) {
      const std::size_t common = std::min(own->stable_digests.size(),
                                          recovered_->stable_digests.size());
      for (std::size_t c = 0; c < common; ++c) {
        cbc::require(own->stable_digests[c] == recovered_->stable_digests[c],
                     "recovery: stable digest chain diverges from the peer "
                     "at cycle " + std::to_string(c + 1));
      }
      // The pre-crash file can be AHEAD of the transferred snapshot (the
      // peer may not have closed the cycle we flushed last). Acks were
      // capped at our flushed frontier, so senders have pruned everything
      // the fresher chain covers — restore from whichever chain is longer
      // or the pruned prefix can never be retransmitted.
      if (own->cycles > recovered_->cycles) {
        recovered_ = std::move(own);
      }
    }
    const cbc::fault::Checkpoint& snapshot = *recovered_;
    cbc::require(snapshot.frontier.width() == view_.size(),
                 "recovery: checkpoint frontier width does not match the "
                 "cluster view");
    std::map<cbc::NodeId, cbc::SeqNo> floors;
    for (std::size_t rank = 0; rank < view_.size(); ++rank) {
      floors[view_.member_at(rank)] =
          snapshot.frontier.at(static_cast<cbc::NodeId>(rank));
    }
    checker_->restore(snapshot.stable_digests, std::move(floors));
    cbc::Reader state_reader(snapshot.app_state);
    replica_->restore_state(cbc::object::Value::decode(state_reader));
    // Baseline adoption also fast-forwards our send seqs above the
    // frontier's record of our own pre-crash broadcasts, so peers do not
    // discard our first new messages as duplicates.
    replica_->osend().adopt_baseline(snapshot.frontier);
    replica_->front_end().restore(snapshot.last_sync, {});
    syncs_delivered_ = snapshot.cycles;
    current_round_ = static_cast<std::int64_t>(snapshot.cycles) - 1;
    awaiting_admission_ = true;
    latest_checkpoint_ = snapshot;
    apply_ack_ceilings(snapshot);
    if (recovery_restored_ != nullptr) {
      recovery_restored_->set(static_cast<std::int64_t>(snapshot.cycles));
    }
  }

  /// Raises the per-peer ack ceilings to `snapshot`'s frontier: the
  /// reliability layer may now acknowledge exactly what this persisted
  /// checkpoint covers (see OSendMember::set_ack_ceiling).
  void apply_ack_ceilings(const cbc::fault::Checkpoint& snapshot) {
    for (std::size_t rank = 0; rank < view_.size(); ++rank) {
      const cbc::NodeId member = view_.member_at(rank);
      if (member != args_.id) {
        replica_->osend().set_ack_ceiling(
            member, snapshot.frontier.at(static_cast<cbc::NodeId>(rank)));
      }
    }
  }

  /// Observability sinks for one component (empty hooks = everything off
  /// and every instrumented site reduces to one pointer test).
  [[nodiscard]] cbc::obs::Hooks hooks(std::string prefix) {
    if (!args_.observability()) {
      return {};
    }
    return {&registry_, std::move(prefix)};
  }

  void arm_tick() {
    // Liveness backstop + signal poll: signals only set flags; this tick
    // turns them into loop-thread actions.
    loop_.schedule(20'000, [this] {
      pump();
      if (!stopping_) {
        arm_tick();
      }
    });
  }

  void arm_snapshot() {
    if (args_.metrics_snapshot_path.empty()) {
      return;
    }
    loop_.schedule(250'000, [this] {
      dump_metrics();
      if (!stopping_) {
        arm_snapshot();
      }
    });
  }

  /// Atomic rewrite of the metrics page (SIGUSR2 or the snapshot timer);
  /// falls back to stderr when no snapshot path was given.
  void dump_metrics() {
    if (!args_.observability()) {
      return;
    }
    const std::string page = registry_.render_prometheus();
    if (args_.metrics_snapshot_path.empty()) {
      std::cerr << page;
      return;
    }
    // pid-unique tmp + rename: never torn, even when a restarted
    // incarnation shares the snapshot path with its crashed predecessor.
    const std::string tmp = args_.metrics_snapshot_path + ".tmp." +
                            std::to_string(::getpid());
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << page;
    }
    std::rename(tmp.c_str(), args_.metrics_snapshot_path.c_str());
  }

  /// Decodes the flight ring into the --trace file. Runs before
  /// write_history(), which consumes the history buffer.
  void write_trace() {
    cbc::obs::FlightRecorder* recorder = cbc::obs::flight_recorder();
    if (args_.trace_path.empty() || recorder == nullptr) {
      return;
    }
    cbc::obs::DepsById deps;
    for (const cbc::check::HistoryOp& op : history_) {
      deps.emplace(op.id, op.deps);
    }
    const cbc::obs::FlightDump dump =
        cbc::obs::decode_flight_dump(recorder->snapshot_bytes());
    std::ofstream out(args_.trace_path, std::ios::trunc);
    out << cbc::obs::render_trace_events(
        cbc::obs::flight_to_trace_events(dump, deps));
    if (!out) {
      std::cerr << "cbc_node " << args_.id << ": cannot write trace to "
                << args_.trace_path << "\n";
    }
  }

  /// Persists the recorded per-site history for the offline cbc_check
  /// oracle. Written once, at SIGTERM, after the trace.
  void write_history() {
    if (args_.record_history_path.empty()) {
      return;
    }
    cbc::check::SiteHistory history;
    history.object = args_.object;
    history.site = args_.id;
    history.ops = std::move(history_);
    try {
      history.save(args_.record_history_path);
    } catch (const cbc::InvalidArgument& error) {
      std::cerr << "cbc_node " << args_.id << ": cannot write history to "
                << args_.record_history_path << ": " << error.what() << "\n";
    }
  }

  /// Runs on the loop thread only. Inspects deliveries for workload
  /// control. The replica/checker layers have already processed the
  /// message when the tap fires (tap sits above the checker).
  void on_delivery(const cbc::Delivery& delivery) {
    const std::string kind =
        cbc::CommutativitySpec::kind_of(delivery.label());
    if (kind == "nop") {
      std::uint64_t tag = 0;
      try {
        cbc::Reader reader(delivery.payload());
        tag = reader.u64();
      } catch (const cbc::SerdeError&) {
        return;  // malformed marker payload; counted upstream
      }
      // Low two bits select the in-band marker protocol:
      //   0 round marker   (round << 2)
      //   1 departure      (((round+1) << 2) | 1)
      //   2 rejoin request ((proposed << 12) | (id << 2) | 2)
      //   3 admission      ((granted << 12) | (id << 2) | 3)
      switch (tag & 3) {
        case 0:
          marker_count_[delivery.sender] += 1;
          break;
        case 1:
          departed_[delivery.sender] = true;
          break;
        case 2:
          if (is_leader()) {
            grant_admission(tag);
          }
          break;
        default:
          on_admit(tag);
          break;
      }
    } else if (kind == sync_kind_) {
      syncs_delivered_ += 1;
      if (checkpoints_enabled()) {
        capture_checkpoint(delivery);
      }
    }
    loop_.post([this] { pump(); });
  }

  [[nodiscard]] bool checkpoints_enabled() const {
    return args_.discipline == "causal" &&
           (!args_.checkpoint_path.empty() || args_.recover);
  }

  /// Runs at the sync's delivery tap, where the checkpoint is consistent
  /// by construction: the checker has folded this sync into the digest
  /// chain, the ordering layer's delivered prefix covers exactly the
  /// closed cycles (every next-cycle op causally follows this sync, so
  /// none can have been delivered yet), and the replica — which applies
  /// *after* the tap, but the sync op is state-inert (probed at boot) —
  /// holds the agreed stable-point state. The disk write is deferred to
  /// the next pump.
  void capture_checkpoint(const cbc::Delivery& sync) {
    cbc::fault::Checkpoint snapshot;
    snapshot.node = args_.id;
    snapshot.stable_digests = checker_->stable_digests();
    snapshot.cycles = snapshot.stable_digests.size();
    snapshot.last_sync = sync.id;
    snapshot.frontier = replica_->osend().delivered_prefix();
    cbc::Writer writer;
    replica_->state().encode(writer);
    snapshot.app_state = writer.take();
    latest_checkpoint_ = std::move(snapshot);
    checkpoint_dirty_ = true;
  }

  void flush_checkpoint() {
    if (!checkpoint_dirty_) {
      return;
    }
    checkpoint_dirty_ = false;
    if (!args_.checkpoint_path.empty()) {
      latest_checkpoint_->save(args_.checkpoint_path);
    }
    apply_ack_ceilings(*latest_checkpoint_);
    if (recovery_checkpoints_ != nullptr) {
      recovery_checkpoints_->inc();
    }
  }

  /// Leader side of the rejoin handshake. The granted round is clamped
  /// above every sync already submitted, and the recovering member is
  /// credited with markers for all skipped rounds — round closure then
  /// never waits on history it cannot replay. The admission nop is
  /// commutative: the next sync's Occurs_After set covers it, so the
  /// recovering member learns its start round before it can see the sync
  /// that opens it.
  void grant_admission(std::uint64_t tag) {
    const std::uint64_t proposed = tag >> 12;
    const auto who = static_cast<cbc::NodeId>((tag >> 2) & 0x3FF);
    if (who >= config_.size() || who == args_.id) {
      return;
    }
    const std::uint64_t granted = std::max(proposed, syncs_submitted_ + 1);
    marker_count_[who] = std::max(marker_count_[who], granted);
    departed_[who] = false;
    replica_->submit(cbc::object::nop(
        (granted << 12) | (static_cast<std::uint64_t>(who) << 2) | 3));
  }

  void on_admit(std::uint64_t tag) {
    const auto who = static_cast<cbc::NodeId>((tag >> 2) & 0x3FF);
    if (who != args_.id || !awaiting_admission_) {
      return;
    }
    const std::uint64_t granted = tag >> 12;
    current_round_ = static_cast<std::int64_t>(granted) - 1;
    awaiting_admission_ = false;
    write_progress();
  }

  void pump() {
    if (stopping_) {
      return;
    }
    if (g_terminate_requested != 0) {
      write_report();
      dump_metrics();
      write_trace();
      write_history();
      stopping_ = true;
      loop_.stop();
      return;
    }
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      dump_metrics();
      if (cbc::obs::FlightRecorder* recorder = cbc::obs::flight_recorder()) {
        recorder->dump();
      }
    }
    if (args_.observer) {
      write_progress();
      return;
    }
    if (g_depart_requested != 0 && !departure_submitted_) {
      // The departing nop is FIFO-chained after everything this member
      // has submitted, so delivering it proves our whole history arrived.
      const std::uint64_t tag =
          (static_cast<std::uint64_t>(current_round_ + 1) << 2) | 1;
      replica_->submit(cbc::object::nop(tag));
      departure_submitted_ = true;
      write_report();  // role=departed; harness collects it pre-restart
      return;
    }
    if (departure_submitted_) {
      return;  // lingering: serve retransmissions until SIGTERM
    }
    flush_checkpoint();
    if (recovered_.has_value() && !rejoin_submitted_) {
      // Single-shot rejoin: Occurs_After(last restored sync), so every
      // member delivers it inside a cycle the leader has yet to close.
      const std::uint64_t tag = ((syncs_delivered_ + 1) << 12) |
                                (static_cast<std::uint64_t>(args_.id) << 2) |
                                2;
      replica_->submit(cbc::object::nop(tag));
      rejoin_submitted_ = true;
      write_progress();
    }
    if (args_.discipline == "total") {
      pump_total();
      return;
    }
    pump_causal();
  }

  void pump_causal() {
    // Start the next round once the previous round's sync has arrived —
    // unless we are quiesced (submissions stopped for a planned kill) or
    // still waiting for the leader to grant our post-recovery round.
    const bool quiesced_rounds = args_.quiesce_at_round >= 0 &&
                                 current_round_ >= args_.quiesce_at_round;
    if (!awaiting_admission_ && !quiesced_rounds &&
        current_round_ + 1 < static_cast<std::int64_t>(args_.rounds) &&
        syncs_delivered_ >= static_cast<std::uint64_t>(current_round_ + 1)) {
      current_round_ += 1;
      for (std::uint64_t op = 0; op < args_.ops_per_round; ++op) {
        replica_->submit(entry_.workload_op(
            args_.id, static_cast<std::uint64_t>(current_round_), op));
      }
      replica_->submit(cbc::object::nop(
          static_cast<std::uint64_t>(current_round_) << 2));
      write_progress();
    }
    if (quiesced_rounds) {
      write_progress();  // the harness polls for quiesced=1
    }
    if (is_leader()) {
      maybe_close_round();
    }
    if (!report_written_ && syncs_delivered_ >= args_.rounds) {
      write_report();  // done; keep looping to serve retransmissions
      // A done report promises an on-disk metrics page too — a fast run
      // may finish before the first snapshot tick.
      dump_metrics();
    }
  }

  void maybe_close_round() {
    // Close round r (submit its sync) only when every live member's
    // round-r marker has been delivered here — the sync's Occurs_After
    // set then covers all of round r's commutative traffic, which is what
    // makes cycle membership identical at every member.
    if (syncs_submitted_ != syncs_delivered_ ||
        syncs_submitted_ > static_cast<std::uint64_t>(current_round_) ||
        syncs_submitted_ >= args_.rounds) {
      return;
    }
    const std::uint64_t round = syncs_submitted_;
    for (std::size_t member = 0; member < config_.size(); ++member) {
      if (!departed_[member] && marker_count_[member] < round + 1) {
        return;
      }
    }
    replica_->submit(entry_.sync_op);
    syncs_submitted_ += 1;
  }

  void pump_total() {
    // Total-order mode: submit everything up front; the deterministic
    // round merge serializes it identically everywhere. One sync per
    // member closes one cycle per member.
    if (!total_submitted_) {
      total_submitted_ = true;
      for (std::uint64_t op = 0; op < args_.ops_per_round; ++op) {
        replica_->submit(entry_.workload_op(args_.id, 0, op));
      }
      replica_->submit(entry_.sync_op);
    }
    const std::uint64_t expected =
        config_.size() * (args_.ops_per_round + 1);
    write_progress();
    if (!report_written_ &&
        checker_->delivered_sequence().size() >= expected) {
      write_report();
      dump_metrics();
    }
  }

  void write_progress() {
    if (args_.progress_path.empty()) {
      return;
    }
    // quiesced=1 promises the member is safe to SIGKILL: it has stopped
    // submitting, delivered its own quiesce round's sync, and holds no
    // unacknowledged frames — nothing of its history can be orphaned.
    bool quiesced = false;
    if (args_.quiesce_at_round >= 0 && args_.discipline == "causal" &&
        current_round_ >= args_.quiesce_at_round &&
        syncs_delivered_ >
            static_cast<std::uint64_t>(args_.quiesce_at_round)) {
      quiesced = replica_->osend().reliable_quiescent();
    }
    // id/metrics_port ride along so fleet tools (cbc_top) can discover
    // live scrape endpoints before any final report exists.
    write_kv_file(
        args_.progress_path,
        {{"round", std::to_string(current_round_)},
         {"delivered",
          std::to_string(checker_->delivered_sequence().size())},
         {"syncs", std::to_string(syncs_delivered_)},
         {"quiesced", quiesced ? "1" : "0"},
         {"admitted", awaiting_admission_ ? "0" : "1"},
         {"id", std::to_string(args_.id)},
         {"metrics_port", metrics_http_ != nullptr
                              ? std::to_string(metrics_http_->port())
                              : "none"}});
  }

  void write_report() {
    if (report_written_) {
      return;
    }
    report_written_ = true;
    const char* role = args_.observer          ? "observer"
                       : departure_submitted_  ? "departed"
                       : is_leader()           ? "leader"
                                               : "worker";
    const auto& digests = checker_->stable_digests();
    const cbc::net::UdpTransport::Stats udp = udp_.stats();
    const auto& stable = replica_->last_stable_state();
    std::vector<std::pair<std::string, std::string>> kv = {
        {"id", std::to_string(args_.id)},
        {"object", args_.object},
        {"role", role},
        {"done", syncs_delivered_ >= args_.rounds ||
                         args_.discipline == "total"
                     ? "1"
                     : "0"},
        {"rounds_started", std::to_string(current_round_ + 1)},
        {"syncs", std::to_string(syncs_delivered_)},
        {"delivered", std::to_string(checker_->delivered_sequence().size())},
        // The digest chain folds every previous stable point, so
        // (digest_count, digest) summarizes the whole agreed history.
        {"digest_count", std::to_string(digests.size())},
        {"digest", digests.empty() ? "0" : hex64(digests.back())},
        {"stable_state",
         stable.has_value() ? stable->to_string() : "none"},
        {"recovered", args_.recover ? "1" : "0"},
        {"violations", std::to_string(log_->size())},
        {"malformed", std::to_string(checker_->stats().malformed)},
        {"datagrams_sent", std::to_string(udp.datagrams_sent)},
        {"datagrams_received", std::to_string(udp.datagrams_received)},
        {"backend", loop_.uses_epoll() ? "epoll" : "poll"},
        {"metrics_port", metrics_http_ != nullptr
                             ? std::to_string(metrics_http_->port())
                             : "none"},
        {"flight", flight_file()},
    };
    write_kv_file(args_.report_path, kv);
    if (!log_->empty()) {
      std::cerr << "cbc_node " << args_.id
                << ": INVARIANT VIOLATIONS:\n"
                << log_->report();
    }
  }

  /// Where a postmortem of this process would read the flight ring.
  [[nodiscard]] static std::string flight_file() {
    cbc::obs::FlightRecorder* recorder = cbc::obs::flight_recorder();
    if (recorder == nullptr) {
      return "none";
    }
    return recorder->file_backed() ? recorder->options().path
                                   : recorder->options().dump_path;
  }

  NodeArgs args_;
  cbc::net::ClusterConfig config_;
  cbc::net::EventLoop loop_;
  // The registry precedes every component that registers collectors, so
  // it is destroyed last.
  cbc::obs::MetricsRegistry registry_;
  cbc::net::UdpTransport udp_;
  // Optional fault-injection seam; batching_ rides it when present.
  std::unique_ptr<cbc::fault::ChaosTransport> chaos_;
  cbc::BatchingTransport batching_;
  cbc::GroupView view_;
  std::shared_ptr<cbc::check::ViolationLog> log_;
  cbc::check::InvariantChecker* checker_ = nullptr;  // owned via replica_
  std::unique_ptr<cbc::ReplicaNode<cbc::object::Value>> replica_;
  std::unique_ptr<cbc::net::MetricsHttpServer> metrics_http_;

  // Replicated-object plumbing (resolved once in the constructor).
  cbc::object::CatalogEntry entry_;
  std::string sync_kind_;
  bool sync_inert_ = false;
  // --record-history / --trace buffer
  std::vector<cbc::check::HistoryOp> history_;

  // Workload state (loop-thread-only).
  std::int64_t current_round_ = -1;  // last round whose ops were submitted
  std::uint64_t syncs_delivered_ = 0;
  std::uint64_t syncs_submitted_ = 0;       // leader only
  std::vector<std::uint64_t> marker_count_;  // leader: nops per sender
  std::vector<bool> departed_;               // leader: departure seen
  bool total_submitted_ = false;
  bool departure_submitted_ = false;
  bool report_written_ = false;
  bool stopping_ = false;

  // Robustness state (loop-thread-only once the loop runs).
  std::optional<cbc::fault::Checkpoint> recovered_;  // transferred at boot
  std::optional<cbc::fault::Checkpoint> latest_checkpoint_;
  bool checkpoint_dirty_ = false;
  bool awaiting_admission_ = false;
  bool rejoin_submitted_ = false;
  cbc::obs::Counter* recovery_checkpoints_ = nullptr;
  cbc::obs::Counter* recovery_transfers_ = nullptr;
  cbc::obs::Gauge* recovery_restored_ = nullptr;
  cbc::obs::CollectorHandle flight_collector_;
};

}  // namespace

int main(int argc, char** argv) {
  struct sigaction usr1 {};
  usr1.sa_handler = on_sigusr1;
  ::sigaction(SIGUSR1, &usr1, nullptr);
  struct sigaction term {};
  term.sa_handler = on_sigterm;
  ::sigaction(SIGTERM, &term, nullptr);
  struct sigaction usr2 {};
  usr2.sa_handler = on_sigusr2;
  ::sigaction(SIGUSR2, &usr2, nullptr);

  try {
    cbc::apps::install_objects();
    const NodeArgs args = parse_args(argc, argv);
    // Always-on flight recorder, installed before any protocol state
    // exists: with --flight the ring lives in a file mapping and
    // survives SIGKILL; otherwise it is in-memory and dumped next to
    // the report on crash points, SIGUSR2, and invariant violations.
    cbc::obs::FlightRecorder::Options flight_options;
    flight_options.node_id = static_cast<std::uint32_t>(args.id);
    flight_options.role = 0;
    flight_options.path = args.flight_path;
    if (!args.trace_path.empty()) {
      flight_options.capacity = kTraceRingRecords;
    }
    if (args.flight_path.empty()) {
      flight_options.dump_path =
          !args.report_path.empty()
              ? args.report_path + ".flight"
              : "cbc_node" + std::to_string(args.id) + ".flight";
    }
    cbc::obs::FlightRecorder flight(flight_options);
    cbc::obs::install_flight_recorder(&flight);
    cbc::net::ClusterConfig config =
        cbc::net::ClusterConfig::load(args.config_path);
    // Recovery bootstrap runs BEFORE the stack exists: fetch a live
    // peer's latest checkpoint on a raw socket bound to our own address,
    // so no message is ever delivered against pre-restore state.
    std::optional<cbc::fault::Checkpoint> recovered;
    if (args.recover) {
      cbc::NodeId peer = args.transfer_from;
      if (peer == cbc::kNoNode) {
        peer = args.id == 0 ? 1 : 0;
      }
      cbc::require(peer != args.id && peer < config.size(),
                   "cbc_node: --transfer-from must name another member");
      cbc::fault::TransferOptions transfer;
      transfer.self = config.sockaddr_of(args.id);
      transfer.peer = config.sockaddr_of(peer);
      recovered = cbc::fault::fetch_checkpoint_blocking(
          {.requester = args.id, .have = 0}, transfer);
      cbc::require(recovered.has_value(),
                   "cbc_node: state transfer timed out — no checkpoint "
                   "from member " + std::to_string(peer));
    }
    Node node(args, std::move(config), std::move(recovered));
    return node.run();
  } catch (const std::exception& error) {
    std::cerr << "cbc_node: fatal: " << error.what() << "\n";
    return 1;
  }
}
