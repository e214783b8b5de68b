#include "runtime/node_runtime.h"

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>

#include "apps/install.h"
#include "fault/fault_plan.h"
#include "object/sequential_spec.h"
#include "obs/trace.h"

namespace cbc::runtime {
namespace {

/// Flight-ring slots with --trace: a whole traced run (40 MB, resident
/// only once written).
constexpr std::size_t kTraceRingRecords = std::size_t{1} << 20;

volatile std::sig_atomic_t g_terminate_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigterm(int) { g_terminate_requested = 1; }
void on_sigusr2(int) { g_dump_requested = 1; }

obs::Hooks hooks_for(obs::MetricsRegistry* metrics, std::string prefix) {
  return metrics != nullptr ? obs::Hooks{metrics, std::move(prefix)}
                            : obs::Hooks{};
}

object::CatalogEntry find_entry(const std::string& object) {
  const auto entry = object::Catalog::instance().find(object);
  require(entry.has_value(), "unknown --object '" + object + "'");
  return *entry;
}

/// Builds and installs the process's flight ring.
obs::FlightRecorder* install_flight(const SharedFlags& flags,
                                    const Config& config) {
  obs::FlightRecorder::Options options;
  options.node_id = config.history_origin + config.self;
  options.role = config.flight_role;
  options.path = flags.flight_path;
  if (!config.trace_path.empty()) {
    options.capacity = kTraceRingRecords;
  }
  if (flags.flight_path.empty()) {
    options.dump_path = flags.report_path.empty()
                            ? config.flight_fallback
                            : flags.report_path + ".flight";
  }
  auto* recorder = new obs::FlightRecorder(std::move(options));
  obs::install_flight_recorder(recorder);
  return recorder;
}

void uninstall_flight(obs::FlightRecorder* recorder) {
  obs::install_flight_recorder(nullptr);
  delete recorder;
}

/// Shows every delivery to the binary's workload, checker to replica.
class DeliveryTap final : public ProtocolLayer {
 public:
  DeliveryTap(std::unique_ptr<BroadcastMember> lower,
              std::function<void(const Delivery&)> inspect)
      : ProtocolLayer(std::move(lower)), inspect_(std::move(inspect)) {}

 private:
  void on_lower_delivery(const Delivery& delivery) override {
    inspect_(delivery);
    deliver_up(delivery);
  }

  std::function<void(const Delivery&)> inspect_;
};

/// Atomic (pid-unique tmp + rename) write; see write_kv_file.
bool write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int error = 0;
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << contents;
    out.close();
    if (!out) {
      error = errno != 0 ? errno : EIO;
    }
  }
  if (error == 0 && std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  error = error != 0 ? error : errno;
  std::remove(tmp.c_str());
  // A progress path fails on every rewrite; one line per path says it.
  static std::set<std::string> reported;
  if (reported.insert(path).second) {
    std::cerr << "cannot write " << path << ": " << std::strerror(error)
              << "\n";
  }
  return false;
}

/// The KiB value of one /proc/self/status line ("VmHWM:", ...).
std::uint64_t proc_status_kb(std::string_view key) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

std::uint64_t parse_uint(std::string_view flag, std::string_view token,
                         std::uint64_t min, std::uint64_t max) {
  bool ok = !token.empty();
  std::uint64_t value = 0;
  for (const char c : token) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    // value * 10 + digit > max is tested without computing it, so no
    // input can wrap.
    if (c < '0' || c > '9' || value > max / 10 ||
        (value == max / 10 && digit > max % 10)) {
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  require(ok && value >= min,
          std::string(flag) + " expects a decimal integer in [" +
              std::to_string(min) + ", " + std::to_string(max) + "], got '" +
              std::string(token) + "'");
  return value;
}

bool SharedFlags::parse(ArgReader& args) {
  const std::string& flag = args.flag();
  const std::pair<const char*, std::string*> paths[] = {
      {"--report", &report_path},
      {"--progress", &progress_path},
      {"--record-history", &record_history_path},
      {"--fault-plan", &fault_plan_path},
      {"--flight", &flight_path},
      {"--metrics-snapshot", &metrics_snapshot_path},
  };
  for (const auto& [name, path] : paths) {
    if (flag == name) {
      *path = args.value();
      return true;
    }
  }
  if (flag == "--metrics-port") {
    metrics_port = args.number<int>(0, 65535);
  } else if (flag == "--force-poll") {
    force_poll = true;
  } else {
    return false;
  }
  return true;
}

bool write_kv_file(const std::string& path, const KeyValues& kv) {
  if (path.empty()) {
    return true;
  }
  std::string text;
  for (const auto& [key, value] : kv) {
    text.append(key).append("=").append(value).append("\n");
  }
  return write_file_atomic(path, text);
}

std::uint64_t peak_rss_kb() { return proc_status_kb("VmHWM:"); }
std::uint64_t rss_kb() { return proc_status_kb("VmRSS:"); }

std::string hex64(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

int run_main(const char* binary, const std::function<int()>& body) {
  struct sigaction action {};
  action.sa_handler = on_sigterm;
  ::sigaction(SIGTERM, &action, nullptr);
  action.sa_handler = on_sigusr2;
  ::sigaction(SIGUSR2, &action, nullptr);
  try {
    apps::install_objects();
    return body();
  } catch (const std::exception& error) {
    std::cerr << binary << ": fatal: " << error.what() << "\n";
    return 1;
  }
}

StackOptions stack_options(const Config& config,
                           const CommutativitySpec& derived,
                           obs::MetricsRegistry* metrics) {
  StackOptions options;
  options.udp.local_ids = {config.self};
  options.udp.obs = hooks_for(metrics, "udp");
  options.batching.obs = hooks_for(metrics, "batch");
  ReliableEndpoint::Options& reliability = options.osend.reliability;
  reliability.enabled = true;
  reliability.obs = hooks_for(metrics, "reliable");
  reliability.oob_handler = config.oob_handler;
  reliability.suspect_after_us = config.suspect_after_us;
  reliability.heartbeat_interval_us = config.heartbeat_interval_us;
  reliability.on_liveness = config.on_liveness;
  options.osend.obs = hooks_for(metrics, "osend");
  options.asend.reliability = reliability;
  options.asend.obs = hooks_for(metrics, "asend");
  options.stack.obs = hooks_for(metrics, "stack");
  options.check.obs = hooks_for(metrics, "check");
  options.check.expect_total_order = config.total_order;
  options.check.stable_spec = derived;
  // A departure nop races the in-flight sync and can land in different
  // stable cycles at different members; nops are state-inert, so the
  // digest covers exactly the (deterministic) state-affecting history.
  options.check.digest_exempt_kinds = {"nop"};
  options.front_end.fifo_chain = true;
  return options;
}

obs::Hooks NodeRuntime::hooks(std::string prefix) {
  return hooks_for(metrics(), std::move(prefix));
}

NodeRuntime::NodeRuntime(const SharedFlags& flags, Config config)
    : flags_(flags),
      config_(std::move(config)),
      flight_(install_flight(flags_, config_), &uninstall_flight),
      entry_(find_entry(config_.object)),
      loop_(net::EventLoop::Options{.force_poll = flags_.force_poll,
                                    .wheel = {}}),
      options_(stack_options(config_,
                             object::derive_commutativity(entry_.spec()),
                             metrics())),
      udp_(loop_, config_.cluster, options_.udp),
      chaos_(make_chaos()),
      batching_(chaos_ != nullptr ? static_cast<Transport&>(*chaos_)
                                  : static_cast<Transport&>(udp_),
                options_.batching),
      view_(1, config_.members),
      log_(std::make_shared<check::ViolationLog>()) {
  registry_.set_default_labels(config_.default_labels);
  build_stack();
  // The flight ring is process-global and always on; export its
  // occupancy, and what the process holds, whenever anything scrapes this
  // registry.
  process_collector_ =
      registry_.register_collector([this](obs::CollectorSink& sink) {
        sink.counter("flight.records", flight_->total_recorded());
        sink.gauge("flight.capacity", static_cast<double>(flight_->capacity()));
        sink.gauge("process.rss_bytes", static_cast<double>(rss_kb() * 1024));
        const LockGuard guard(replica_->member().stack_mutex());
        sink.gauge("replica.stable_states",
                   static_cast<double>(replica_->stable_states()));
      });
  if (flags_.metrics_port >= 0) {
    net::MetricsHttpServer::Options http_options;
    http_options.port = static_cast<std::uint16_t>(flags_.metrics_port);
    metrics_http_ = std::make_unique<net::MetricsHttpServer>(
        loop_, registry_, http_options);
  }
}

std::unique_ptr<fault::ChaosTransport> NodeRuntime::make_chaos() {
  if (flags_.fault_plan_path.empty()) {
    return nullptr;
  }
  fault::ChaosTransport::Options options;
  options.plan = fault::FaultPlan::load(flags_.fault_plan_path);
  options.local_node = config_.self;
  // A scripted crash is a SIGKILL equivalent: only the flight ring is
  // persisted (dump() is async-signal-safe).
  options.on_crash = [this] {
    flight_->dump();
    std::_Exit(137);
  };
  options.obs = hooks("fault");
  return std::make_unique<fault::ChaosTransport>(udp_, std::move(options));
}

void NodeRuntime::build_stack() {
  // The ordering member registers on the batching decorator, so every
  // frame (data, acks, retransmissions) rides the batch framing.
  std::unique_ptr<BroadcastMember> member;
  if (config_.total_order) {
    member = std::make_unique<ASendMember>(
        batching_, view_, [](const Delivery&) {}, options_.asend);
  } else {
    member = std::make_unique<OSendMember>(
        batching_, view_, [](const Delivery&) {}, options_.osend);
  }
  if (flags_.metrics()) {
    member = std::make_unique<obs::InstrumentationLayer>(std::move(member),
                                                         options_.stack);
  }
  auto checker = std::make_unique<check::InvariantChecker>(
      std::move(member), log_, options_.check);
  checker_ = checker.get();
  member = std::move(checker);
  if (config_.tap) {
    member = std::make_unique<DeliveryTap>(std::move(member), config_.tap);
  }
  replica_ = std::make_unique<Replica>(
      std::move(member), *options_.check.stable_spec, options_.front_end,
      object::Value(entry_.make()));
  const bool record_ops =
      !flags_.record_history_path.empty() || !config_.trace_path.empty();
  if (!record_ops && !config_.on_apply) {
    return;
  }
  // One (id, deps, response) buffer serves the cbc_check history and the
  // Occurs_After edges of cbc_node --trace.
  replica_->set_apply_observer(
      [this, record_ops](const Delivery& delivery,
                         const std::vector<std::uint8_t>& response) {
        if (record_ops) {
          const NodeId base = config_.history_origin;
          check::HistoryOp op;
          op.id = MessageId{base + delivery.id.sender, delivery.id.seq};
          op.origin = base + delivery.sender;
          op.label = delivery.label();
          const auto payload = delivery.payload();
          op.args.assign(payload.begin(), payload.end());
          for (const MessageId& dep : delivery.deps().ids()) {
            op.deps.push_back(MessageId{base + dep.sender, dep.seq});
          }
          op.response = response;
          history_.push_back(std::move(op));
        }
        if (config_.on_apply) {
          config_.on_apply();
        }
      });
}

int NodeRuntime::run(const std::function<void()>& on_tick,
                     const std::function<void()>& on_terminate) {
  // Liveness backstop + signal poll: signals only set flags; the tick
  // turns them into loop-thread actions.
  every(20'000, [this, on_tick, on_terminate] {
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      dump_metrics();
      flight_->dump();
    }
    if (g_terminate_requested != 0) {
      on_terminate();
      stop();
    } else {
      on_tick();
    }
  });
  if (!flags_.metrics_snapshot_path.empty()) {
    every(250'000, [this] { dump_metrics(); });
  }
  loop_.run();
  return 0;
}

void NodeRuntime::stop() {
  dump_metrics();
  if (!config_.trace_path.empty()) {
    obs::DepsById deps;
    for (const check::HistoryOp& op : history_) {
      deps.emplace(op.id, op.deps);
    }
    const obs::FlightDump dump =
        obs::decode_flight_dump(flight_->snapshot_bytes());
    std::ofstream out(config_.trace_path, std::ios::trunc);
    out << obs::render_trace_events(obs::flight_to_trace_events(dump, deps));
    if (!out) {
      std::cerr << config_.name << ": cannot write trace to "
                << config_.trace_path << "\n";
    }
  }
  if (!flags_.record_history_path.empty()) {
    check::SiteHistory history;
    history.object = config_.object;
    history.site = config_.history_origin + config_.self;
    history.ops = std::move(history_);
    try {
      history.save(flags_.record_history_path);
    } catch (const InvalidArgument& error) {
      std::cerr << config_.name << ": cannot write history to "
                << flags_.record_history_path << ": " << error.what() << "\n";
    }
  }
  stopping_ = true;
  loop_.stop();
}

void NodeRuntime::dump_metrics() {
  if (!flags_.metrics_snapshot_path.empty()) {
    write_file_atomic(flags_.metrics_snapshot_path,
                      registry_.render_prometheus());
  } else if (flags_.metrics_port >= 0) {
    std::cerr << registry_.render_prometheus();
  }
}

void NodeRuntime::write_report(KeyValues keys) {
  if (report_written_) {
    return;
  }
  report_written_ = true;
  const std::vector<std::uint64_t>& digests = checker_->stable_digests();
  keys.emplace_back("delivered", std::to_string(delivered()));
  // The digest chain folds every previous stable point, so
  // (digest_count, digest) summarizes the whole agreed history.
  keys.emplace_back("digest_count", std::to_string(checker_->stable_cycles()));
  keys.emplace_back("digest", digests.empty() ? "0" : hex64(digests.back()));
  keys.emplace_back("violations", std::to_string(log_->size()));
  keys.emplace_back("peak_rss_kb", std::to_string(peak_rss_kb()));
  keys.emplace_back("metrics_port", metrics_port_text());
  // Where a postmortem of this process would read the flight ring.
  const obs::FlightRecorder::Options& ring = flight_->options();
  keys.emplace_back("flight",
                    flight_->file_backed() ? ring.path : ring.dump_path);
  write_kv_file(flags_.report_path, keys);
  if (!log_->empty()) {
    std::cerr << config_.name << ": INVARIANT VIOLATIONS:\n"
              << log_->report();
  }
}

}  // namespace cbc::runtime
