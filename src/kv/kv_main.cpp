// cbc_kv — the sharded causal KV service (§5.2) in one binary.
//
//   cbc_kv server --layout FILE --shard S --rank R [options]
//     One replica of one shard: the full library stack over real UDP
//     (UdpTransport -> [ChaosTransport] -> Batching -> OSend ->
//     InvariantChecker -> delivery tap -> ReplicaNode<object::Value>)
//     running the catalog's "kv" object, plus a KvService answering
//     client oob requests at this replica. Each shard is an independent
//     causal group: no causal metadata ever crosses shards.
//
//   cbc_kv drive --layout FILE [options]
//     The front-end driver: binds every shard's router slot, runs
//     `sessions` client sessions through a round-structured mixed
//     workload — each session puts its own key slots (keys hash across
//     all shards), then reads a neighbour session's keys after adopting
//     that session's context token (§5.2 token transfer), so every read
//     is a cross-shard, cross-session causal dependency the service must
//     honor. Each round closes with per-shard fences under the merged
//     round token; every session adopts the fence context before the
//     next round, which causally orders same-slot rewrites across
//     rounds. The driver verifies every read returns the value the
//     adopted context promises; a stale value is a consistency bug and
//     is counted in the report (value_mismatches, expected 0).
//
// Shutdown is context-consistent too: the driver sends kShutdown with
// its final token to every replica; a replica acks only once its shard
// frontier covers the token — i.e. once it has delivered the complete
// workload — then writes its report (and recorded history) and exits.
// By the time the last ack arrives, no replica needs retransmissions.
//
// Server reports/history mirror cbc_node: key=value report files, and
// --record-history writes a SiteHistory whose broadcast ids are
// remapped to shard-qualified origins (shard * replicas + rank) so the
// per-rank histories of ALL shards merge into one id space for the
// offline cbc_check oracle; session-local gets are recorded at their
// true serve position with per-session origins.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/install.h"
#include "causal/osend.h"
#include "check/history.h"
#include "check/invariant_checker.h"
#include "check/violation.h"
#include "fault/chaos_transport.h"
#include "fault/fault_plan.h"
#include "group/group_view.h"
#include "kv/kv_service.h"
#include "kv/session.h"
#include "kv/shard_map.h"
#include "kv/wire.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/metrics_http.h"
#include "net/udp_transport.h"
#include "object/catalog.h"
#include "object/value.h"
#include "obs/flight_recorder.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "replica/replica_node.h"
#include "transport/batching.h"
#include "util/ensure.h"

#include <unistd.h>

namespace {

volatile std::sig_atomic_t g_terminate_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigterm(int) { g_terminate_requested = 1; }
void on_sigusr2(int) { g_dump_requested = 1; }

struct KvArgs {
  std::string mode;  // "server" or "drive"
  std::string layout_path;
  std::size_t shard = static_cast<std::size_t>(-1);
  cbc::NodeId rank = cbc::kNoNode;
  std::string report_path;
  std::string progress_path;
  std::string record_history_path;
  std::string fault_plan_path;
  std::string flight_path;
  bool force_poll = false;
  int metrics_port = -1;  // -1 = no endpoint; 0 = ephemeral
  std::string metrics_snapshot_path;
  std::int64_t wait_timeout_ms = 2000;

  // Driver knobs.
  std::uint64_t sessions = 2;
  std::uint64_t rounds = 3;
  std::uint64_t ops_per_round = 4;
  std::int64_t ready_timeout_ms = 20'000;
  std::int64_t exchange_timeout_ms = 5000;

  [[nodiscard]] bool observability() const {
    return metrics_port >= 0 || !metrics_snapshot_path.empty();
  }
};

void usage() {
  std::cerr
      << "usage: cbc_kv server --layout FILE --shard S --rank R [options]\n"
         "       cbc_kv drive  --layout FILE [options]\n"
         "  --layout FILE     kv layout file (shards/replicas/member lines)\n"
         "server options:\n"
         "  --shard S         this replica's shard\n"
         "  --rank R          this replica's rank within the shard\n"
         "  --report FILE     write the final key=value report here\n"
         "  --progress FILE   rewrite request progress here (harnesses)\n"
         "  --record-history FILE  write this replica's history here at\n"
         "                    drain (cbc_check input, shard-remapped ids)\n"
         "  --fault-plan FILE deterministic fault injection plan\n"
         "  --flight FILE     back the flight-recorder ring with FILE\n"
         "                    (survives SIGKILL; default in-memory ring\n"
         "                    dumped on crash points and SIGUSR2)\n"
         "  --wait-timeout-ms N  context-wait deadline before kRetry\n"
         "  --metrics-port P  serve Prometheus plaintext on 127.0.0.1:P\n"
         "  --metrics-snapshot FILE  rewrite the metrics page here\n"
         "  --force-poll      use the poll event-loop backend\n"
         "drive options:\n"
         "  --sessions N      client sessions (default 2)\n"
         "  --rounds R        workload rounds (default 3)\n"
         "  --ops K           key slots per session per round (default 4)\n"
         "  --report FILE     write the driver's key=value report here\n"
         "  --ready-timeout-ms N   wait for every replica to answer\n"
         "  --exchange-timeout-ms N  per-request client deadline\n";
}

KvArgs parse_args(int argc, char** argv) {
  KvArgs args;
  cbc::require(argc >= 2, "cbc_kv: a mode (server|drive) is required");
  args.mode = argv[1];
  cbc::require(args.mode == "server" || args.mode == "drive",
               "cbc_kv: mode must be server or drive");
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      cbc::require(i + 1 < argc, "cbc_kv: flag needs a value: " + flag);
      return argv[++i];
    };
    if (flag == "--layout") {
      args.layout_path = value();
    } else if (flag == "--shard") {
      args.shard = std::stoul(value());
    } else if (flag == "--rank") {
      args.rank = static_cast<cbc::NodeId>(std::stoul(value()));
    } else if (flag == "--report") {
      args.report_path = value();
    } else if (flag == "--progress") {
      args.progress_path = value();
    } else if (flag == "--record-history") {
      args.record_history_path = value();
    } else if (flag == "--fault-plan") {
      args.fault_plan_path = value();
    } else if (flag == "--flight") {
      args.flight_path = value();
    } else if (flag == "--wait-timeout-ms") {
      args.wait_timeout_ms = std::stoll(value());
      cbc::require(args.wait_timeout_ms > 0,
                   "cbc_kv: --wait-timeout-ms must be positive");
    } else if (flag == "--metrics-port") {
      args.metrics_port = std::stoi(value());
      cbc::require(args.metrics_port >= 0 && args.metrics_port <= 65535,
                   "cbc_kv: --metrics-port out of range");
    } else if (flag == "--metrics-snapshot") {
      args.metrics_snapshot_path = value();
    } else if (flag == "--force-poll") {
      args.force_poll = true;
    } else if (flag == "--sessions") {
      args.sessions = std::stoull(value());
      cbc::require(args.sessions >= 1, "cbc_kv: --sessions must be >= 1");
    } else if (flag == "--rounds") {
      args.rounds = std::stoull(value());
    } else if (flag == "--ops") {
      args.ops_per_round = std::stoull(value());
      cbc::require(args.ops_per_round >= 1, "cbc_kv: --ops must be >= 1");
    } else if (flag == "--ready-timeout-ms") {
      args.ready_timeout_ms = std::stoll(value());
    } else if (flag == "--exchange-timeout-ms") {
      args.exchange_timeout_ms = std::stoll(value());
    } else {
      usage();
      cbc::require(false, "cbc_kv: unknown flag: " + flag);
    }
  }
  cbc::require(!args.layout_path.empty(), "cbc_kv: --layout is required");
  if (args.mode == "server") {
    cbc::require(args.shard != static_cast<std::size_t>(-1),
                 "cbc_kv server: --shard is required");
    cbc::require(args.rank != cbc::kNoNode, "cbc_kv server: --rank is required");
  }
  return args;
}

/// Atomic (tmp + rename) key=value file write, so a harness polling the
/// path never reads a partial file.
void write_kv_file(const std::string& path,
                   const std::vector<std::pair<std::string, std::string>>& kv) {
  if (path.empty()) {
    return;
  }
  // pid-unique tmp: a crashed member's restarted incarnation can share
  // the path, and two writers on one ".tmp" would tear the rename.
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

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one kv replica process owns, wired bottom-up.
class Server {
 public:
  Server(const KvArgs& args, cbc::kv::KvLayout layout)
      : args_(args),
        layout_(std::move(layout)),
        config_(layout_.shard_config(args.shard)),
        loop_(cbc::net::EventLoop::Options{.force_poll = args.force_poll,
                                           .wheel = {}}),
        udp_(loop_, config_, make_udp_options()),
        chaos_(make_chaos()),
        batching_(chaos_ != nullptr ? static_cast<cbc::Transport&>(*chaos_)
                                    : static_cast<cbc::Transport&>(udp_),
                  make_batching_options()),
        view_(1, group_members()),
        log_(std::make_shared<cbc::check::ViolationLog>()) {
    cbc::require(args_.shard < layout_.shards,
                 "cbc_kv server: --shard out of range for the layout");
    cbc::require(args_.rank < layout_.replicas,
                 "cbc_kv server: --rank out of range for the layout");
    if (args_.observability()) {
      // Every scrape line from this process carries its shard/replica
      // identity, so one Prometheus target set tells shards apart.
      registry_.set_default_labels(
          {{"shard", std::to_string(args_.shard)},
           {"replica", std::to_string(args_.rank)}});
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
    const auto entry = cbc::object::Catalog::instance().find("kv");
    cbc::require(entry.has_value(), "cbc_kv: catalog is missing 'kv'");
    const cbc::CommutativitySpec derived =
        cbc::object::derive_commutativity(entry->spec());

    cbc::OSendMember::Options osend_options;
    osend_options.reliability.enabled = true;
    osend_options.reliability.obs = hooks("reliable");
    // Client requests arrive inside the datagram-processing path (stack
    // lock held, front-end state mid-update). Serving them there would
    // deadlock on submit and compute wrong dependencies, so the payload
    // is copied and the service runs from a posted loop task — same loop
    // thread, outside the stack.
    osend_options.reliability.oob_handler =
        [this](cbc::NodeId from, std::span<const std::uint8_t> payload) {
          std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
          loop_.post([this, from, bytes = std::move(bytes)] {
            service_->handle(from, bytes);
          });
        };
    osend_options.obs = hooks("osend");
    auto member = std::make_unique<cbc::OSendMember>(
        batching_, view_, [](const cbc::Delivery&) {}, osend_options);

    cbc::check::InvariantChecker::Options check_options;
    check_options.obs = hooks("check");
    check_options.stable_spec = derived;
    check_options.digest_exempt_kinds = {"nop"};
    auto checker = std::make_unique<cbc::check::InvariantChecker>(
        std::move(member), log_, check_options);
    checker_ = checker.get();

    replica_ = std::make_unique<cbc::ReplicaNode<cbc::object::Value>>(
        std::move(checker), derived,
        cbc::FrontEndManager::Options{.fifo_chain = true},
        cbc::object::Value(entry->make()));
    // The apply observer fires after the replica applied a broadcast op:
    // the right moment to record it (actual response bytes, for CM
    // replay) and the earliest sound moment to wake parked client
    // requests — deferred to a posted task so serving happens outside
    // the stack, with the front end fully caught up.
    replica_->set_apply_observer(
        [this](const cbc::Delivery& delivery,
               const std::vector<std::uint8_t>& response) {
          if (!args_.record_history_path.empty()) {
            cbc::check::HistoryOp op;
            op.id = remap(delivery.id);
            op.origin = remap_origin(delivery.sender);
            op.label = delivery.label();
            const auto payload = delivery.payload();
            op.args.assign(payload.begin(), payload.end());
            for (const cbc::MessageId& dep : delivery.deps().ids()) {
              op.deps.push_back(remap(dep));
            }
            op.response = response;
            history_.push_back(std::move(op));
          }
          loop_.post([this] { service_->on_delivery(); });
        });

    cbc::kv::KvService::Options service_options;
    service_options.shard = args_.shard;
    service_options.shards = layout_.shards;
    service_options.replicas = layout_.replicas;
    service_options.rank = args_.rank;
    service_options.wait_timeout_us = args_.wait_timeout_ms * 1000;
    if (!args_.record_history_path.empty()) {
      service_options.record_get = [this](cbc::check::HistoryOp op) {
        history_.push_back(std::move(op));
      };
    }
    service_options.obs = hooks("kv");
    service_ = std::make_unique<cbc::kv::KvService>(
        *replica_,
        [this](cbc::NodeId to, std::vector<std::uint8_t> payload) {
          replica_->osend().send_oob(to, payload);
        },
        [] { return steady_now_us(); }, std::move(service_options));

    if (args_.metrics_port >= 0) {
      cbc::net::MetricsHttpServer::Options http_options;
      http_options.port = static_cast<std::uint16_t>(args_.metrics_port);
      metrics_http_ = std::make_unique<cbc::net::MetricsHttpServer>(
          loop_, registry_, http_options);
    }
  }

  int run() {
    write_progress();
    arm_tick();
    arm_snapshot();
    loop_.run();
    return 0;
  }

 private:
  [[nodiscard]] std::vector<cbc::NodeId> group_members() const {
    // The shard config carries replicas + 1 entries; the last is the
    // router slot — addressable, but never a causal group member.
    std::vector<cbc::NodeId> members;
    for (std::size_t rank = 0; rank < layout_.replicas; ++rank) {
      members.push_back(static_cast<cbc::NodeId>(rank));
    }
    return members;
  }

  [[nodiscard]] cbc::net::UdpTransport::Options make_udp_options() {
    cbc::net::UdpTransport::Options options;
    options.local_ids = {args_.rank};
    options.obs = hooks("udp");
    return options;
  }

  [[nodiscard]] cbc::BatchingTransport::Options make_batching_options() {
    cbc::BatchingTransport::Options options;
    options.obs = hooks("batch");
    return options;
  }

  [[nodiscard]] std::unique_ptr<cbc::fault::ChaosTransport> make_chaos() {
    if (args_.fault_plan_path.empty()) {
      return nullptr;
    }
    cbc::fault::ChaosTransport::Options options;
    options.plan = cbc::fault::FaultPlan::load(args_.fault_plan_path);
    options.local_node = args_.rank;
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

  [[nodiscard]] cbc::obs::Hooks hooks(std::string prefix) {
    if (!args_.observability()) {
      return {};
    }
    return {&registry_, std::move(prefix)};
  }

  [[nodiscard]] cbc::NodeId remap_origin(cbc::NodeId rank) const {
    return cbc::kv::shard_origin(args_.shard, layout_.replicas, rank);
  }

  [[nodiscard]] cbc::MessageId remap(const cbc::MessageId& id) const {
    return cbc::MessageId{remap_origin(id.sender), id.seq};
  }

  void arm_tick() {
    loop_.schedule(20'000, [this] {
      tick();
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

  void tick() {
    service_->poll();
    write_progress();
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      dump_metrics();
      if (cbc::obs::FlightRecorder* recorder = cbc::obs::flight_recorder()) {
        recorder->dump();
      }
    }
    if (g_terminate_requested != 0) {
      finish();
      return;
    }
    if (service_->drain_requested()) {
      // The drain ack has been sent (the shutdown request's token was
      // covered, so the full workload is delivered here). Linger a few
      // ticks so the ack datagram and any final acks flush, then exit.
      ++drain_ticks_;
      if (drain_ticks_ >= 10) {
        finish();
      }
    }
  }

  void finish() {
    write_report();
    dump_metrics();
    write_history();
    stopping_ = true;
    loop_.stop();
  }

  void dump_metrics() {
    if (!args_.observability() || args_.metrics_snapshot_path.empty()) {
      return;
    }
    const std::string tmp =
        args_.metrics_snapshot_path + ".tmp." + std::to_string(::getpid());
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << registry_.render_prometheus();
    }
    std::rename(tmp.c_str(), args_.metrics_snapshot_path.c_str());
  }

  void write_history() {
    if (args_.record_history_path.empty()) {
      return;
    }
    cbc::check::SiteHistory history;
    history.object = "kv";
    history.site = remap_origin(args_.rank);
    history.ops = std::move(history_);
    try {
      history.save(args_.record_history_path);
    } catch (const cbc::InvalidArgument& error) {
      std::cerr << "cbc_kv server " << args_.shard << "/" << args_.rank
                << ": cannot write history: " << error.what() << "\n";
    }
  }

  void write_progress() {
    if (args_.progress_path.empty()) {
      return;
    }
    const cbc::kv::KvService::Stats& s = service_->stats();
    // shard/rank/metrics_port ride along so fleet tools (cbc_top) can
    // discover live scrape endpoints before any final report exists.
    write_kv_file(args_.progress_path,
                  {{"requests", std::to_string(s.requests)},
                   {"parked", std::to_string(service_->parked())},
                   {"delivered",
                    std::to_string(checker_->delivered_sequence().size())},
                   {"drain", service_->drain_requested() ? "1" : "0"},
                   {"shard", std::to_string(args_.shard)},
                   {"rank", std::to_string(args_.rank)},
                   {"metrics_port", metrics_http_ != nullptr
                                        ? std::to_string(metrics_http_->port())
                                        : "none"}});
  }

  void write_report() {
    if (report_written_) {
      return;
    }
    report_written_ = true;
    const auto& digests = checker_->stable_digests();
    const cbc::kv::KvService::Stats& s = service_->stats();
    write_kv_file(
        args_.report_path,
        {{"shard", std::to_string(args_.shard)},
         {"rank", std::to_string(args_.rank)},
         {"object", "kv"},
         {"done", service_->drain_requested() ? "1" : "0"},
         {"delivered", std::to_string(checker_->delivered_sequence().size())},
         {"digest_count", std::to_string(digests.size())},
         {"digest", digests.empty() ? "0" : hex64(digests.back())},
         {"requests", std::to_string(s.requests)},
         {"puts", std::to_string(s.puts)},
         {"gets", std::to_string(s.gets)},
         {"fences", std::to_string(s.fences)},
         {"context_waits", std::to_string(s.context_waits)},
         {"context_timeouts", std::to_string(s.context_timeouts)},
         {"malformed", std::to_string(s.malformed)},
         {"violations", std::to_string(log_->size())},
         {"metrics_port", metrics_http_ != nullptr
                              ? std::to_string(metrics_http_->port())
                              : "none"},
         {"flight", flight_file()}});
    if (!log_->empty()) {
      std::cerr << "cbc_kv server " << args_.shard << "/" << args_.rank
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

  KvArgs args_;
  cbc::kv::KvLayout layout_;
  cbc::net::ClusterConfig config_;
  cbc::net::EventLoop loop_;
  cbc::obs::MetricsRegistry registry_;
  cbc::net::UdpTransport udp_;
  std::unique_ptr<cbc::fault::ChaosTransport> chaos_;
  cbc::BatchingTransport batching_;
  cbc::GroupView view_;
  std::shared_ptr<cbc::check::ViolationLog> log_;
  cbc::check::InvariantChecker* checker_ = nullptr;  // owned via replica_
  std::unique_ptr<cbc::ReplicaNode<cbc::object::Value>> replica_;
  std::unique_ptr<cbc::kv::KvService> service_;
  std::unique_ptr<cbc::net::MetricsHttpServer> metrics_http_;
  cbc::obs::CollectorHandle flight_collector_;
  std::vector<cbc::check::HistoryOp> history_;
  int drain_ticks_ = 0;
  bool report_written_ = false;
  bool stopping_ = false;
};

/// The workload value every session writes into slot k at round r — and
/// therefore the exact value a causally-fresh read must return.
std::string slot_key(std::uint64_t session, std::uint64_t slot) {
  return "s" + std::to_string(session) + "_k" + std::to_string(slot);
}

std::string slot_value(std::uint64_t session, std::uint64_t slot,
                       std::uint64_t round) {
  return "r" + std::to_string(round) + "v" + std::to_string(session + slot);
}

int run_driver(const KvArgs& args, cbc::kv::KvLayout layout) {
  cbc::kv::KvClient::Options client_options;
  client_options.exchange_timeout_ms = args.exchange_timeout_ms;
  cbc::kv::KvClient client(std::move(layout), client_options);
  const std::size_t shards = client.layout().shards;
  const std::size_t replicas = client.layout().replicas;

  if (!client.wait_ready(args.ready_timeout_ms)) {
    std::cerr << "cbc_kv drive: replicas did not become ready\n";
    return 1;
  }

  std::vector<cbc::kv::KvSession> sessions;
  sessions.reserve(args.sessions);
  for (std::uint64_t s = 0; s < args.sessions; ++s) {
    sessions.emplace_back(client, s + 1);
  }

  std::uint64_t value_mismatches = 0;
  std::uint64_t failures = 0;
  std::vector<std::uint64_t> final_digests(shards, 0);
  for (std::uint64_t round = 0; round < args.rounds; ++round) {
    // 1. Every session rewrites its own key slots (keys hash across all
    //    shards — each session's round is a cross-shard write fan-out).
    for (std::uint64_t s = 0; s < args.sessions; ++s) {
      for (std::uint64_t slot = 0; slot < args.ops_per_round; ++slot) {
        if (!sessions[s].put(slot_key(s, slot), slot_value(s, slot, round))) {
          ++failures;
        }
      }
    }
    // 2. Cross-session causal reads: session s adopts its neighbour's
    //    context (§5.2 — the token passes with the data) and must then
    //    observe exactly the neighbour's round-r values, whichever shard
    //    and replica serves the read.
    for (std::uint64_t s = 0; s < args.sessions && args.sessions > 1; ++s) {
      const std::uint64_t peer = (s + 1) % args.sessions;
      sessions[s].adopt(sessions[peer].context());
      for (std::uint64_t slot = 0; slot < args.ops_per_round; ++slot) {
        const auto got = sessions[s].get(slot_key(peer, slot));
        if (!got.has_value()) {
          ++failures;
          continue;
        }
        if (!got->present || got->value != slot_value(peer, slot, round)) {
          ++value_mismatches;
        }
      }
    }
    // 3. Close the round: session 0 adopts every session's context and
    //    fences each shard — the fence causally follows all round-r puts
    //    on its shard. Everyone then adopts the fence context, so round
    //    r+1's same-slot rewrites are causally after fence r.
    for (std::uint64_t s = 1; s < args.sessions; ++s) {
      sessions[0].adopt(sessions[s].context());
    }
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const auto digest = sessions[0].fence(shard);
      if (!digest.has_value()) {
        ++failures;
        continue;
      }
      final_digests[shard] = *digest;
    }
    for (std::uint64_t s = 1; s < args.sessions; ++s) {
      sessions[s].adopt(sessions[0].context());
    }
  }

  // Context-consistent shutdown: the final token covers the complete
  // workload, so each replica acks only once it has delivered everything.
  std::uint64_t shutdown_failures = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      if (!sessions[0].shutdown(shard, rank)) {
        ++shutdown_failures;
      }
    }
  }

  std::uint64_t retries = 0;
  for (const cbc::kv::KvSession& session : sessions) {
    retries += session.retries();
  }
  const cbc::kv::KvClient::Stats& cs = client.stats();
  std::vector<std::pair<std::string, std::string>> kv = {
      {"sessions", std::to_string(args.sessions)},
      {"rounds", std::to_string(args.rounds)},
      {"ops", std::to_string(args.ops_per_round)},
      {"shards", std::to_string(shards)},
      {"replicas", std::to_string(replicas)},
      {"done", failures == 0 && shutdown_failures == 0 ? "1" : "0"},
      {"value_mismatches", std::to_string(value_mismatches)},
      {"failures", std::to_string(failures)},
      {"shutdown_failures", std::to_string(shutdown_failures)},
      {"retries", std::to_string(retries)},
      {"exchanges", std::to_string(cs.exchanges)},
      {"resends", std::to_string(cs.resends)},
      {"stray_datagrams", std::to_string(cs.stray_datagrams)},
  };
  for (std::size_t shard = 0; shard < shards; ++shard) {
    kv.emplace_back("digest_shard" + std::to_string(shard),
                    hex64(final_digests[shard]));
  }
  write_kv_file(args.report_path, kv);
  if (value_mismatches != 0) {
    std::cerr << "cbc_kv drive: " << value_mismatches
              << " causally-stale read(s) observed\n";
  }
  return failures == 0 && shutdown_failures == 0 && value_mismatches == 0 ? 0
                                                                          : 1;
}

}  // namespace

int main(int argc, char** argv) {
  struct sigaction term {};
  term.sa_handler = on_sigterm;
  ::sigaction(SIGTERM, &term, nullptr);
  struct sigaction dump {};
  dump.sa_handler = on_sigusr2;
  ::sigaction(SIGUSR2, &dump, nullptr);

  try {
    cbc::apps::install_objects();
    const KvArgs args = parse_args(argc, argv);
    cbc::kv::KvLayout layout = cbc::kv::KvLayout::load(args.layout_path);
    if (args.mode == "drive") {
      return run_driver(args, std::move(layout));
    }
    // Always-on flight recorder, installed before any protocol state
    // exists. The decoded pid is the shard-remapped origin (shard *
    // replicas + rank) so dumps from every shard merge into the same id
    // space as the recorded histories.
    cbc::obs::FlightRecorder::Options flight_options;
    flight_options.node_id = static_cast<std::uint32_t>(
        cbc::kv::shard_origin(args.shard, layout.replicas, args.rank));
    flight_options.role = 1;
    flight_options.path = args.flight_path;
    if (args.flight_path.empty()) {
      flight_options.dump_path =
          !args.report_path.empty()
              ? args.report_path + ".flight"
              : "cbc_kv_s" + std::to_string(args.shard) + "_r" +
                    std::to_string(args.rank) + ".flight";
    }
    cbc::obs::FlightRecorder flight(flight_options);
    cbc::obs::install_flight_recorder(&flight);
    Server server(args, std::move(layout));
    return server.run();
  } catch (const std::exception& error) {
    std::cerr << "cbc_kv: fatal: " << error.what() << "\n";
    return 1;
  }
}
