// kv_mix: the cbc_kv server stack as 4 shards x 3 replicas on one
// EventLoop thread, driven from the main thread through KvClient /
// KvSession with cbc_kv drive's round pattern: every session puts its own
// key slots, adopts its neighbour's context token and reads the
// neighbour's keys (a session-local read that never broadcasts), and the
// round closes with one fence per shard under the merged token.
#include <pthread.h>
#include <time.h>

#include <future>
#include <sstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/install.h"
#include "apps/kv_store.h"
#include "kv/kv_service.h"
#include "kv/session.h"
#include "kv/shard_map.h"
#include "kv/wire.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "obs/flight_recorder.h"
#include "stack.h"
#include "util/ensure.h"
#include "util/serde.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The traffic of examples/run_kv.sh: 4 shards x 3 replicas driven by
// `cbc_kv drive --sessions 3 --ops 4` (key slots per session per round).
constexpr std::size_t kShards = 4;
constexpr std::size_t kReplicas = 3;
constexpr std::uint64_t kSessions = 3;
constexpr std::uint64_t kSlots = 4;
// Episode size, not traffic: 28 requests a round, so the timed rounds
// hold ~6.7k requests and their last tenth ~670.
constexpr std::uint64_t kWarmupRounds = 48;
constexpr std::uint64_t kTimedRounds = 240;

std::int64_t steady_now_us() { return now_ns() / 1000; }

/// One replica: cbc_kv server's stack plus its KvService.
class KvServer {
 public:
  KvServer(cbc::net::EventLoop& loop, const cbc::kv::KvLayout& layout,
           std::size_t shard, cbc::NodeId rank,
           cbc::check::InvariantMonitor& monitor,
           cbc::obs::MetricsRegistry* registry)
      : loop_(loop), shard_(shard) {
    const auto entry = cbc::object::Catalog::instance().find("kv");
    cbc::require(entry.has_value(), "perfbench: catalog is missing 'kv'");
    cbc::net::UdpTransport::Options udp;
    udp.local_ids = {rank};
    udp.obs = hooks(registry, "udp");
    udp_ = std::make_unique<cbc::net::UdpTransport>(
        loop_, layout.shard_config(shard), udp);
    std::vector<cbc::NodeId> members;
    for (std::size_t r = 0; r < layout.replicas; ++r) {
      members.push_back(static_cast<cbc::NodeId>(r));
    }
    StackConfig config;
    config.spec = cbc::object::derive_commutativity(entry->spec());
    config.object = "kv";
    config.registry = registry;
    // Client requests arrive inside the datagram path; cbc_kv copies them
    // and serves from a posted loop task, outside the stack.
    config.oob_handler = [this](cbc::NodeId from,
                                std::span<const std::uint8_t> payload) {
      std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
      loop_.post([this, from, bytes = std::move(bytes)] {
        const ScopedSpan span(SpanKind::kKvHandle);
        service_->handle(from, bytes);
      });
    };
    stack_ = std::make_unique<MemberStack>(*udp_, cbc::GroupView(1, members),
                                           monitor, config);
    stack_->replica().set_apply_observer(
        [this](const cbc::Delivery&, const std::vector<std::uint8_t>&) {
          loop_.post([this] {
            const ScopedSpan span(SpanKind::kKvDrain);
            service_->on_delivery();
          });
        });
    cbc::kv::KvService::Options service;
    service.shard = shard;
    service.shards = layout.shards;
    service.replicas = layout.replicas;
    service.rank = rank;
    service.wait_timeout_us = 2000 * 1000;  // cbc_kv's --wait-timeout-ms
    service.obs = hooks(registry, "kv");
    service_ = std::make_unique<cbc::kv::KvService>(
        stack_->replica(),
        [this](cbc::NodeId to, std::vector<std::uint8_t> payload) {
          stack_->replica().osend().send_oob(to, payload);
        },
        [] { return steady_now_us(); }, std::move(service));
  }

  void poll() { service_->poll(); }
  [[nodiscard]] MemberStack& stack() { return *stack_; }
  [[nodiscard]] const MemberStack& stack() const { return *stack_; }
  [[nodiscard]] std::uint64_t datagrams_sent() const {
    return udp_->stats().datagrams_sent;
  }
  [[nodiscard]] std::size_t shard() const { return shard_; }

 private:
  cbc::net::EventLoop& loop_;
  std::size_t shard_;
  std::unique_ptr<cbc::net::UdpTransport> udp_;
  std::unique_ptr<MemberStack> stack_;
  std::unique_ptr<cbc::kv::KvService> service_;
};

/// Every replica of the deployment on one EventLoop thread.
class KvDeployment {
 public:
  KvDeployment(const cbc::kv::KvLayout& layout, bool traced)
      : loop_(cbc::net::EventLoop::Options{.force_poll = false, .wheel = {}}) {
    if (traced) {
      registry_ = std::make_unique<cbc::obs::MetricsRegistry>();
    }
    for (std::size_t shard = 0; shard < layout.shards; ++shard) {
      monitors_.push_back(std::make_unique<cbc::check::InvariantMonitor>());
      for (std::size_t rank = 0; rank < layout.replicas; ++rank) {
        servers_.push_back(std::make_unique<KvServer>(
            loop_, layout, shard, static_cast<cbc::NodeId>(rank),
            *monitors_.back(), registry_.get()));
      }
    }
    arm_tick();
    thread_ = std::thread([this] { loop_.run(); });
  }

  ~KvDeployment() { stop(); }
  KvDeployment(const KvDeployment&) = delete;
  KvDeployment& operator=(const KvDeployment&) = delete;

  void stop() {
    if (thread_.joinable()) {
      loop_.stop();
      thread_.join();
    }
  }

  /// Runs `fn` on the loop thread and waits for it (reads of loop-owned
  /// state while the loop runs).
  template <typename Fn>
  auto on_loop(Fn fn) -> decltype(fn()) {
    std::packaged_task<decltype(fn())()> task(std::move(fn));
    auto result = task.get_future();
    loop_.post([&task] { task(); });
    return result.get();
  }

  [[nodiscard]] double loop_cpu_seconds() {
    clockid_t clock{};
    if (!thread_.joinable() ||
        ::pthread_getcpuclockid(thread_.native_handle(), &clock) != 0) {
      return 0.0;
    }
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  }

  [[nodiscard]] std::map<std::string, double> counter_snapshot() {
    return on_loop([this] {
      std::map<std::string, double> out;
      if (registry_ != nullptr) {
        out = registry_->snapshot();
      }
      double datagrams = 0;
      for (const auto& server : servers_) {
        datagrams += static_cast<double>(server->datagrams_sent());
      }
      out["net.datagrams"] = datagrams;
      return out;
    });
  }

  [[nodiscard]] std::vector<std::unique_ptr<KvServer>>& servers() {
    return servers_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<cbc::check::InvariantMonitor>>&
  monitors() {
    return monitors_;
  }
  [[nodiscard]] StackOptions member_options() const {
    return servers_.front()->stack().options();
  }

 private:
  void arm_tick() {
    // cbc_kv's 20ms tick: expire parked requests past their deadline.
    loop_.schedule(20'000, [this] {
      for (auto& server : servers_) {
        server->poll();
      }
      arm_tick();
    });
  }

  std::unique_ptr<cbc::obs::MetricsRegistry> registry_;
  cbc::net::EventLoop loop_;
  std::vector<std::unique_ptr<cbc::check::InvariantMonitor>> monitors_;
  std::vector<std::unique_ptr<KvServer>> servers_;
  std::thread thread_;  // last: joined before the state it runs on goes
};

/// cbc_kv drive's client side, with the timing the benchmark adds.
class KvDriver {
 public:
  KvDriver(cbc::kv::KvLayout layout, std::uint64_t seed, bool traced)
      : client_(std::move(layout), cbc::kv::KvClient::Options{}),
        salt_(std::to_string(mix_seed(seed, 4) % 1'000'000)),
        traced_(traced),
        final_digests_(client_.layout().shards, 0) {
    for (std::uint64_t s = 0; s < kSessions; ++s) {
      sessions_.emplace_back(client_, s + 1);
    }
  }

  [[nodiscard]] bool ready() { return client_.wait_ready(20'000); }

  /// One round of the drive pattern; `phase` (when set) collects timings.
  void round(std::uint64_t round, PhaseSamples* phase) {
    for (std::uint64_t s = 0; s < kSessions; ++s) {
      for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
        timed(phase, false, [&] {
          return sessions_[s].put(key(s, slot), value(s, slot, round));
        });
      }
    }
    for (std::uint64_t s = 0; s < kSessions; ++s) {
      const std::uint64_t peer = (s + 1) % kSessions;
      sessions_[s].adopt(sessions_[peer].context());
      for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
        timed(phase, false, [&] {
          const auto got = sessions_[s].get(key(peer, slot));
          if (!got.has_value()) {
            return false;
          }
          if (!got->present || got->value != value(peer, slot, round)) {
            stale_reads_ += 1;  // the client oracle of cbc_kv drive
            return false;
          }
          return true;
        });
      }
    }
    for (std::uint64_t s = 1; s < kSessions; ++s) {
      sessions_[0].adopt(sessions_[s].context());
    }
    for (std::size_t shard = 0; shard < client_.layout().shards; ++shard) {
      timed(phase, true, [&] {
        const auto digest = sessions_[0].fence(shard);
        if (!digest.has_value()) {
          return false;
        }
        final_digests_[shard] = *digest;
        return true;
      });
    }
    for (std::uint64_t s = 1; s < kSessions; ++s) {
      sessions_[s].adopt(sessions_[0].context());
    }
  }

  /// cbc_kv's context-consistent shutdown: each replica acks once it has
  /// delivered everything the final token covers.
  [[nodiscard]] bool shutdown() {
    bool ok = true;
    for (std::size_t shard = 0; shard < client_.layout().shards; ++shard) {
      for (std::size_t rank = 0; rank < client_.layout().replicas; ++rank) {
        ok = sessions_[0].shutdown(shard, rank) && ok;
      }
    }
    return ok;
  }

  [[nodiscard]] std::uint64_t retries() const {
    std::uint64_t total = 0;
    for (const auto& session : sessions_) {
      total += session.retries();
    }
    return total;
  }

  [[nodiscard]] const cbc::kv::KvClient::Stats& client_stats() const {
    return client_.stats();
  }
  [[nodiscard]] std::uint64_t stale_reads() const { return stale_reads_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t unanswered() const { return unanswered_; }
  [[nodiscard]] double token_bytes() const { return token_bytes_; }
  [[nodiscard]] const std::vector<std::uint64_t>& final_digests() const {
    return final_digests_;
  }

 private:
  [[nodiscard]] std::string key(std::uint64_t session, std::uint64_t slot) const {
    return "s" + std::to_string(session) + "_k" + std::to_string(slot) + "_" +
           salt_;
  }
  [[nodiscard]] std::string value(std::uint64_t session, std::uint64_t slot,
                                  std::uint64_t round) const {
    return "r" + std::to_string(round) + "v" + std::to_string(session + slot) +
           "_" + salt_;
  }

  template <typename Request>
  void timed(PhaseSamples* phase, bool fence, Request request) {
    if (traced_ && phase != nullptr) {
      // Every session's token has one shape; session 0's stands for all.
      cbc::Writer writer;
      sessions_.front().context().encode(writer);
      token_bytes_ += static_cast<double>(writer.size());
    }
    const std::int64_t start = now_ns();
    bool ok = false;
    {
      const ScopedSpan span(SpanKind::kKvClient);
      ok = request();
    }
    const std::int64_t end = now_ns();
    if (phase == nullptr) {
      return;
    }
    attempted_ += 1;
    if (!ok) {
      unanswered_ += 1;
      return;
    }
    const double micros = static_cast<double>(end - start) / 1e3;
    phase->ops += 1;
    phase->completion_ns.push_back(end);
    phase->op_latency_us.push_back(micros);
    if (fence) {
      phase->stable_point_us.push_back(micros);
    }
  }

  cbc::kv::KvClient client_;
  std::string salt_;
  bool traced_;
  std::vector<cbc::kv::KvSession> sessions_;
  std::vector<std::uint64_t> final_digests_;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t unanswered_ = 0;
  double token_bytes_ = 0.0;
};

void check_outputs(KvDeployment& deployment, const KvDriver& driver,
                   Verdict& verdict) {
  for (std::size_t shard = 0; shard < deployment.monitors().size(); ++shard) {
    if (!deployment.monitors()[shard]->check_quiescent()) {
      verdict.fail("kv: shard " + std::to_string(shard) + " invariant monitor: " +
                   deployment.monitors()[shard]->report().substr(0, 400));
    }
  }
  // Every replica's final state must hash to its shard's last fence digest.
  for (const auto& server : deployment.servers()) {
    const cbc::object::Op fence =
        cbc::apps::KvStore::fence(server->shard(), kShards);
    cbc::object::Value state = server->stack().replica().state();
    cbc::Reader args(fence.args);
    const std::vector<std::uint8_t> bytes = state.apply("fence", args);
    cbc::Reader digest(bytes);
    if (digest.u64() != driver.final_digests()[server->shard()]) {
      verdict.fail("kv: shard " + std::to_string(server->shard()) +
                   " replica state disagrees with the fence digest");
    }
  }
}

std::uint64_t inner_bytes(KvDeployment& deployment) {
  return deployment.on_loop([&] {
    std::uint64_t bytes = 0;
    for (const auto& server : deployment.servers()) {
      bytes += server->stack().inner_bytes();
    }
    return bytes;
  });
}

}  // namespace

Episode run_kv_episode(const RunOptions& options, std::uint64_t episode_seed,
                       bool traced, std::ostream* parity) {
  cbc::apps::install_objects();
  Episode episode;
  const std::int64_t setup_start = now_ns();
  const cbc::kv::KvLayout layout = cbc::kv::KvLayout::localhost(
      kShards, kReplicas, reserve_udp_ports(kShards * (kReplicas + 1)));
  KvDeployment deployment(layout, traced);
  KvDriver driver(layout, episode_seed, traced);
  if (!driver.ready()) {
    episode.verdict.fail("kv: replicas did not answer the map exchange");
    return episode;
  }
  for (std::uint64_t r = 0; r < kWarmupRounds; ++r) {
    driver.round(r, nullptr);
  }
  episode.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  std::ostringstream unprinted;
  if (!check_parity(deployment.member_options(), traced,
                    parity != nullptr ? *parity : unprinted)) {
    episode.verdict.fail("stack options differ from the production binaries");
  }

  LayerInputs& layers = episode.layers;
  std::map<std::string, double> counters_at_start;
  std::array<std::uint64_t, kLayerCount> allocs_at_start{};
  std::uint64_t flight_at_start = 0;
  std::uint64_t bytes_at_start = 0;
  cbc::obs::FlightRecorder* flight = cbc::obs::flight_recorder();
  const cbc::kv::KvClient::Stats client_at_start = driver.client_stats();
  const std::uint64_t retries_at_start = driver.retries();
  if (traced) {
    counters_at_start = deployment.counter_snapshot();
    allocs_at_start = allocation_counts();
    flight_at_start = flight != nullptr ? flight->total_recorded() : 0;
    bytes_at_start = inner_bytes(deployment);
  }
  SpanRecorder* recorder = traced ? active_recorder() : nullptr;
  if (recorder != nullptr) {
    recorder->set_tenth(0);
    recorder->set_active(true);
  }
  const std::uint64_t rounds = options.rounds > 0 ? options.rounds : kTimedRounds;
  PhaseSamples& phase = episode.phase;
  phase.start_ns = now_ns();
  const double cpu_at_start = process_cpu_seconds();
  const double loop_cpu_at_start = deployment.loop_cpu_seconds();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    if (recorder != nullptr) {
      recorder->set_tenth(r * kDeciles / rounds);
    }
    driver.round(kWarmupRounds + r, &phase);
    phase.round_end_ns.push_back(now_ns());
  }
  phase.end_ns = now_ns();
  phase.cpu_s = process_cpu_seconds() - cpu_at_start;
  const double loop_cpu = deployment.loop_cpu_seconds() - loop_cpu_at_start;
  if (recorder != nullptr) {
    recorder->set_active(false);
  }
  if (traced) {
    layers.ops = phase.ops;
    layers.count_ops = phase.ops;
    layers.wall_s = static_cast<double>(phase.end_ns - phase.start_ns) / 1e9;
    layers.loop_cpu_s = loop_cpu;
    const std::map<std::string, double> counters_at_end =
        deployment.counter_snapshot();
    for (const auto& [name, value] : counters_at_end) {
      const auto start = counters_at_start.find(name);
      layers.counters[name] =
          value - (start == counters_at_start.end() ? 0.0 : start->second);
    }
    layers.gauges = counters_at_end;
    const auto allocs = allocation_counts();
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      layers.allocs[i] = allocs[i] - allocs_at_start[i];
    }
    layers.flight_records =
        (flight != nullptr ? flight->total_recorded() : 0) - flight_at_start;
    layers.net_bytes = inner_bytes(deployment) - bytes_at_start;
    const cbc::kv::KvClient::Stats& client = driver.client_stats();
    layers.client_resends =
        static_cast<double>(client.resends - client_at_start.resends);
    layers.client_exchanges =
        static_cast<double>(client.exchanges - client_at_start.exchanges);
    layers.token_bytes_per_request =
        driver.attempted() == 0 ? 0.0
                                : driver.token_bytes() /
                                      static_cast<double>(driver.attempted());
  }

  Verdict& verdict = episode.verdict;
  verdict.attempted = driver.attempted();
  verdict.failed = driver.unanswered() + (driver.retries() - retries_at_start);
  if (driver.stale_reads() != 0) {
    verdict.fail("kv: " + std::to_string(driver.stale_reads()) +
                 " causally-stale read(s)");
  }
  if (driver.unanswered() != 0) {
    verdict.fail("kv: " + std::to_string(driver.unanswered()) +
                 " request(s) failed");
  }
  if (!driver.shutdown()) {
    verdict.fail("kv: a replica did not acknowledge the drain");
  }
  deployment.stop();
  check_outputs(deployment, driver, verdict);
  if (traced) {
    double graph = 0, retained = 0, stable = 0;
    for (const auto& server : deployment.servers()) {
      graph += static_cast<double>(
          server->stack().replica().osend().graph().size());
      retained += static_cast<double>(
          server->stack().checker().delivered_sequence().size());
      stable += static_cast<double>(
          server->stack().replica().stable_history().size());
    }
    const auto n = static_cast<double>(deployment.servers().size());
    layers.graph_nodes = graph / n;
    layers.check_retained = retained / n;
    layers.stable_states = stable / n;
  }
  return episode;
}

}  // namespace perfbench
