// cbc_kv — the sharded causal KV service (§5.2) in one binary.
//
//   cbc_kv server --layout FILE --shard S --rank R [options]
//     One replica of one shard, running the catalog's "kv" object, plus a
//     KvService answering client oob requests at this replica. Each shard
//     is an independent causal group: no causal metadata ever crosses
//     shards.
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
// The server runs cbc_node's stack and shell (runtime::NodeRuntime) with
// the KvService wired in. Its recorded history uses shard-qualified
// origins (shard * replicas + rank), so the histories of ALL shards merge
// into one id space for cbc_check; session-local gets are recorded at
// their true serve position with per-session origins.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/history.h"
#include "kv/kv_service.h"
#include "kv/session.h"
#include "kv/shard_map.h"
#include "kv/wire.h"
#include "runtime/node_runtime.h"
#include "util/ensure.h"

namespace {

namespace rt = cbc::runtime;

struct KvArgs {
  std::string mode;  // "server" or "drive"
  rt::SharedFlags shared;
  std::string layout_path;
  std::size_t shard = static_cast<std::size_t>(-1);
  cbc::NodeId rank = cbc::kNoNode;
  std::int64_t wait_timeout_ms = 2000;

  // Driver knobs.
  std::uint64_t sessions = 2;
  std::uint64_t rounds = 3;
  std::uint64_t ops_per_round = 4;
  std::int64_t ready_timeout_ms = 20'000;
  std::int64_t exchange_timeout_ms = 5000;
};

void usage() {
  std::cerr
      << "usage: cbc_kv server --layout FILE --shard S --rank R [options]\n"
         "       cbc_kv drive  --layout FILE [options]\n"
         "  --layout FILE     kv layout file (shards/replicas/member lines)\n"
         "server options:\n"
         "  --shard S         this replica's shard\n"
         "  --rank R          this replica's rank within the shard\n"
         "  --wait-timeout-ms N  context-wait deadline before kRetry\n"
         "drive options:\n"
         "  --sessions N      client sessions (default 2)\n"
         "  --rounds R        workload rounds (default 3)\n"
         "  --ops K           key slots per session per round (default 4)\n"
         "  --ready-timeout-ms N   wait for every replica to answer\n"
         "  --exchange-timeout-ms N  per-request client deadline\n"
         "shared options (drive writes only --report):\n"
      << rt::kSharedUsage;
}

KvArgs parse_args(int argc, char** argv) {
  KvArgs args;
  cbc::require(argc >= 2, "a mode (server|drive) is required");
  args.mode = argv[1];
  cbc::require(args.mode == "server" || args.mode == "drive",
               "mode must be server or drive");
  rt::ArgReader in(argc, argv, 2);
  while (in.next()) {
    const std::string& flag = in.flag();
    if (args.shared.parse(in)) {
      continue;
    }
    if (flag == "--layout") {
      args.layout_path = in.value();
    } else if (flag == "--shard") {
      args.shard = in.number<std::size_t>(0, cbc::kNoNode - 1);
    } else if (flag == "--rank") {
      args.rank = in.number<cbc::NodeId>(0, cbc::kNoNode - 1);
    } else if (flag == "--wait-timeout-ms") {
      args.wait_timeout_ms = in.number<std::int64_t>(1, rt::kMaxMillis);
    } else if (flag == "--sessions") {
      args.sessions = in.number<std::uint64_t>(1);
    } else if (flag == "--rounds") {
      args.rounds = in.number<std::uint64_t>();
    } else if (flag == "--ops") {
      args.ops_per_round = in.number<std::uint64_t>(1);
    } else if (flag == "--ready-timeout-ms") {
      args.ready_timeout_ms = in.number<std::int64_t>(0, rt::kMaxMillis);
    } else if (flag == "--exchange-timeout-ms") {
      args.exchange_timeout_ms = in.number<std::int64_t>(0, rt::kMaxMillis);
    } else {
      usage();
      cbc::require(false, "unknown flag: " + flag);
    }
  }
  cbc::require(!args.layout_path.empty(), "--layout is required");
  if (args.mode == "server") {
    cbc::require(args.shard != static_cast<std::size_t>(-1),
                 "server: --shard is required");
    cbc::require(args.rank != cbc::kNoNode, "server: --rank is required");
  }
  return args;
}

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One kv replica: the shared runtime plus the KvService answering client
/// oob requests at it.
class Server {
 public:
  Server(const KvArgs& args, const cbc::kv::KvLayout& layout)
      : args_(args), runtime_(args.shared, make_config(layout)) {
    cbc::kv::KvService::Options service_options;
    service_options.shard = args_.shard;
    service_options.shards = layout.shards;
    service_options.replicas = layout.replicas;
    service_options.rank = args_.rank;
    service_options.wait_timeout_us = args_.wait_timeout_ms * 1000;
    if (!args_.shared.record_history_path.empty()) {
      service_options.record_get = [this](cbc::check::HistoryOp op) {
        runtime_.record(std::move(op));
      };
    }
    service_options.obs = runtime_.hooks("kv");
    service_ = std::make_unique<cbc::kv::KvService>(
        runtime_.replica(),
        [this](cbc::NodeId to, std::vector<std::uint8_t> payload) {
          runtime_.replica().osend().send_oob(to, payload);
        },
        [] { return steady_now_us(); }, std::move(service_options));
  }

  int run() {
    write_progress();
    return runtime_.run([this] { tick(); }, [this] { write_report(); });
  }

 private:
  rt::Config make_config(const cbc::kv::KvLayout& layout) {
    rt::Config config;
    config.cluster = layout.shard_config(args_.shard);
    config.self = args_.rank;
    // The last config entry is the router slot: addressable, but never a
    // causal group member.
    config.members = config.cluster.to_view();
    config.members.pop_back();
    config.object = "kv";
    // Client requests arrive inside the datagram-processing path (stack
    // lock held, front-end state mid-update). Serving them there would
    // deadlock on submit and compute wrong dependencies, so the payload
    // is copied and the service runs from a posted loop task — same loop
    // thread, outside the stack.
    config.oob_handler = [this](cbc::NodeId from,
                                std::span<const std::uint8_t> payload) {
      std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
      runtime_.loop().post([this, from, bytes = std::move(bytes)] {
        service_->handle(from, bytes);
      });
    };
    // An applied broadcast is the earliest sound moment to wake parked
    // client requests — deferred to a posted task so serving happens
    // outside the stack, with the front end fully caught up.
    config.on_apply = [this](const cbc::Delivery&) {
      runtime_.loop().post([this] { service_->on_delivery(); });
    };
    // Every scrape line from this process carries its shard/replica
    // identity, so one Prometheus target set tells shards apart.
    config.default_labels = {{"shard", std::to_string(args_.shard)},
                             {"replica", std::to_string(args_.rank)}};
    config.history_origin =
        cbc::kv::shard_origin(args_.shard, layout.replicas, 0);
    config.flight_role = 1;
    config.flight_fallback = "cbc_kv_s" + std::to_string(args_.shard) + "_r" +
                             std::to_string(args_.rank) + ".flight";
    config.name = "cbc_kv server " + std::to_string(args_.shard) + "/" +
                  std::to_string(args_.rank);
    return config;
  }

  void tick() {
    service_->poll();
    write_progress();
    if (service_->drain_requested()) {
      // The drain ack has been sent (the shutdown request's token was
      // covered, so the full workload is delivered here). Linger a few
      // ticks so the ack datagram and any final acks flush, then exit.
      ++drain_ticks_;
      if (drain_ticks_ >= 10) {
        write_report();
        runtime_.stop();
      }
    }
  }

  void write_progress() {
    const cbc::kv::KvService::Stats& s = service_->stats();
    runtime_.write_progress({{"requests", std::to_string(s.requests)},
                             {"parked", std::to_string(service_->parked())},
                             {"drain", service_->drain_requested() ? "1" : "0"},
                             {"shard", std::to_string(args_.shard)},
                             {"rank", std::to_string(args_.rank)}});
  }

  void write_report() {
    const cbc::kv::KvService::Stats& s = service_->stats();
    runtime_.write_report(
        {{"shard", std::to_string(args_.shard)},
         {"rank", std::to_string(args_.rank)},
         {"object", "kv"},
         {"done", service_->drain_requested() ? "1" : "0"},
         {"requests", std::to_string(s.requests)},
         {"puts", std::to_string(s.puts)},
         {"gets", std::to_string(s.gets)},
         {"fences", std::to_string(s.fences)},
         {"context_waits", std::to_string(s.context_waits)},
         {"context_timeouts", std::to_string(s.context_timeouts)},
         {"malformed", std::to_string(s.malformed)}});
  }

  KvArgs args_;
  rt::NodeRuntime runtime_;
  // After the runtime: the service reads the replica and registers kv.*
  // series, so it goes first.
  std::unique_ptr<cbc::kv::KvService> service_;
  int drain_ticks_ = 0;
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
                    rt::hex64(final_digests[shard]));
  }
  rt::write_kv_file(args.shared.report_path, kv);
  if (value_mismatches != 0) {
    std::cerr << "cbc_kv drive: " << value_mismatches
              << " causally-stale read(s) observed\n";
  }
  return failures == 0 && shutdown_failures == 0 && value_mismatches == 0 ? 0
                                                                          : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return rt::run_main("cbc_kv", [&] {
    const KvArgs args = parse_args(argc, argv);
    cbc::kv::KvLayout layout = cbc::kv::KvLayout::load(args.layout_path);
    if (args.mode == "drive") {
      return run_driver(args, std::move(layout));
    }
    cbc::require(args.shard < layout.shards && args.rank < layout.replicas,
                 "server: --shard or --rank out of range for the layout");
    Server server(args, layout);
    return server.run();
  });
}
