// NodeRuntime — the process shell and the production stack that both
// cbc_node and cbc_kv run: one replica member of one causal group over
// real UDP, assembled in one place.
//
//   UdpTransport (kernel datagrams, EventLoop)
//     -> [ChaosTransport]              with --fault-plan
//       -> BatchingTransport           (N frames per datagram)
//         -> OSendMember | ASendMember (reliability enabled)
//           -> check::InvariantChecker (derived spec, `nop` exempt)
//             -> ReplicaNode<object::Value> (FIFO-chained front end)
//
// A binary sees each delivery through Config::on_apply, once the replica
// has applied it. Around the stack the runtime owns the process shell:
// signal flags, the flight ring, metrics (HTTP endpoint, snapshot timer),
// the 20 ms tick, report and progress files, the recorded history and
// the --trace file. A binary adds only its workload. kSharedUsage
// documents the flags both binaries take. Every layer's hooks name the
// runtime's registry whatever the flags; --metrics-port and
// --metrics-snapshot only choose where its page goes. SIGUSR2 dumps the
// metrics page (to the snapshot file, else stderr with --metrics-port)
// and the flight ring; on SIGTERM the binary writes its report and the
// runtime stop()s.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "causal/osend.h"
#include "check/history.h"
#include "check/invariant_checker.h"
#include "fault/chaos_transport.h"
#include "net/event_loop.h"
#include "net/metrics_http.h"
#include "net/udp_transport.h"
#include "object/catalog.h"
#include "object/value.h"
#include "obs/flight_recorder.h"
#include "replica/replica_node.h"
#include "total/asend.h"
#include "transport/batching.h"
#include "util/ensure.h"
#include "util/parse.h"

namespace cbc::runtime {

using KeyValues = std::vector<std::pair<std::string, std::string>>;
using Replica = ReplicaNode<object::Value>;

/// The ceiling of every *-ms flag: its nanoseconds still fit an int64.
inline constexpr std::uint64_t kMaxMillis =
    std::numeric_limits<std::int64_t>::max() / 1'000'000;

/// Walks argv flag by flag; value() and number() consume the current
/// flag's value and name the flag in their errors.
class ArgReader {
 public:
  ArgReader(int argc, char** argv, int first)
      : argc_(argc), argv_(argv), next_(first) {}

  bool next() {
    if (next_ >= argc_) {
      return false;
    }
    flag_ = argv_[next_++];
    return true;
  }
  [[nodiscard]] const std::string& flag() const { return flag_; }
  std::string value() {
    require(next_ < argc_, "flag needs a value: " + flag_);
    return argv_[next_++];
  }
  template <typename T>
  T number(std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<T>::max()) {
    return static_cast<T>(parse_uint(flag_, value(), min, max));
  }

 private:
  int argc_;
  char** argv_;
  int next_;
  std::string flag_;
};

/// The flags both binaries take, as kSharedUsage describes them.
struct SharedFlags {
  std::string report_path;
  std::string progress_path;
  std::string record_history_path;
  std::string fault_plan_path;
  std::string flight_path;
  int metrics_port = -1;  ///< -1 = no endpoint; 0 = ephemeral
  std::string metrics_snapshot_path;

  /// Consumes the reader's current flag when it is a shared one.
  bool parse(ArgReader& args);
};

inline constexpr char kSharedUsage[] =
    "  --report FILE     write the final key=value report here\n"
    "  --progress FILE   rewrite key=value progress here as the run goes\n"
    "  --record-history FILE  write the applied-operation history here at\n"
    "                    exit (cbc_check input)\n"
    "  --fault-plan FILE deterministic fault injection; a scripted local\n"
    "                    crash dumps the flight ring and exits 137\n"
    "  --flight FILE     back the always-on flight ring with FILE (survives\n"
    "                    SIGKILL); else it dumps to <report>.flight\n"
    "  --metrics-port P  serve Prometheus plaintext on 127.0.0.1:P\n"
    "                    (0 = ephemeral; report and progress name it)\n"
    "  --metrics-snapshot FILE  rewrite the metrics page here every 250ms\n";

/// Writes `key=value` lines atomically (pid-unique tmp + rename): a poller
/// never reads a partial file, and two incarnations sharing a path never
/// tear one tmp. An empty path is a no-op. On failure the tmp is removed
/// and stderr gets one line per path for the process lifetime.
bool write_kv_file(const std::string& path, const KeyValues& kv);

[[nodiscard]] std::string hex64(std::uint64_t v);

/// This process's peak (VmHWM) and current (VmRSS) resident set size in
/// KiB, from /proc/self/status; 0 where that is unreadable.
[[nodiscard]] std::uint64_t peak_rss_kb();
[[nodiscard]] std::uint64_t rss_kb();

/// Installs the SIGTERM/SIGUSR2 flags and the object catalog, then runs
/// `body`; an exception becomes "<binary>: fatal: ..." and status 1.
int run_main(const char* binary, const std::function<int()>& body);

/// What differs between the two binaries' members, and the values each
/// sets; everything else is shared.
struct Config {
  net::ClusterConfig cluster;   ///< node: --config; kv: the shard's config
  NodeId self = kNoNode;        ///< node: --id; kv: --rank
  std::vector<NodeId> members;  ///< group view; kv: not the router slot
  bool total_order = false;     ///< ASend instead of OSend. node: --discipline
  std::string object;           ///< catalog name. node: --object; kv: "kv"
  /// node: checkpoint requests (causal only); kv: client requests.
  std::function<void(NodeId, std::span<const std::uint8_t>)> oob_handler;
  /// Sees each delivery once the replica has applied it. node: its
  /// rounds and checkpoints; kv: wakes parked requests.
  std::function<void(const Delivery&)> on_apply;
  /// Failure detector (0 = off). node: --suspect-timeout-ms and
  /// --heartbeat-ms, with the leader's round-closure callback.
  SimTime suspect_after_us = 0;
  SimTime heartbeat_interval_us = 0;
  std::function<void(NodeId peer, bool alive)> on_liveness;
  KeyValues default_labels;  ///< on every series. kv: shard, replica
  /// Recorded origin of rank r is history_origin + r. node: 0; kv:
  /// shard * replicas, so every shard's histories share one id space.
  NodeId history_origin = 0;
  /// Flight ring identity (its decoded pid is history_origin + self): the
  /// role, 0 node / 1 kv, and the dump file when no --report names one.
  std::uint32_t flight_role = 0;
  std::string flight_fallback;
  /// node --trace: a ring sized for a whole run, decoded at stop() into this
  /// Chrome trace with Occurs_After edges joined from the history's deps.
  std::string trace_path;
  std::string name;  ///< stderr prefix: "cbc_node 0", "cbc_kv server 0/1"
};

/// Every layer's options for one member, as both binaries run it (and as
/// tests/runtime_test.cpp pins them). Every hook names `registry`.
struct StackOptions {
  net::UdpTransport::Options udp;
  BatchingTransport::Options batching;
  OSendMember::Options osend;
  ASendMember::Options asend;
  check::InvariantChecker::Options check;
  FrontEndManager::Options front_end;
};

[[nodiscard]] StackOptions stack_options(const Config& config,
                                         const CommutativitySpec& derived,
                                         obs::MetricsRegistry& registry);

/// One member process: the stack above, plus its shell. The flight ring
/// is installed before any protocol state exists (cbc_node's --recover
/// fetch runs before the runtime is built).
class NodeRuntime {
 public:
  NodeRuntime(const SharedFlags& flags, Config config);
  // Timers, collectors and stack callbacks hold `this`.
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Runs the event loop until stop(). Every 20 ms: a pending SIGUSR2
  /// dump; then on SIGTERM `on_terminate` and stop(), else `on_tick`.
  int run(const std::function<void()>& on_tick,
          const std::function<void()>& on_terminate);
  /// Final metrics dump, trace and history, then leaves the loop (posted
  /// tasks never run after it: the loop stops before the next batch).
  void stop();

  /// Writes the report once: `keys`, then delivered, digest_count,
  /// digest, violations, peak_rss_kb, metrics_port and flight (violations
  /// to stderr).
  void write_report(KeyValues keys);
  [[nodiscard]] bool report_written() const { return report_written_; }
  /// Rewrites the progress file: `keys`, then delivered and metrics_port
  /// (so fleet tools find live scrape endpoints before any report).
  void write_progress(KeyValues keys) {
    keys.emplace_back("delivered", std::to_string(delivered()));
    keys.emplace_back("metrics_port", metrics_port_text());
    write_kv_file(flags_.progress_path, keys);
  }
  /// The metrics page to --metrics-snapshot, else to stderr with
  /// --metrics-port; without either, nothing.
  void dump_metrics();

  /// Appends an op to the recorded history (origins already final).
  void record(check::HistoryOp op) { history_.push_back(std::move(op)); }

  /// The registry, and hooks on it for a per-binary component.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return registry_; }
  [[nodiscard]] obs::Hooks hooks(std::string prefix) {
    return obs::Hooks{&registry_, std::move(prefix)};
  }
  [[nodiscard]] net::EventLoop& loop() { return loop_; }
  [[nodiscard]] const object::CatalogEntry& entry() const { return entry_; }
  [[nodiscard]] const GroupView& view() const { return view_; }
  [[nodiscard]] const net::UdpTransport& udp() const { return udp_; }
  [[nodiscard]] Replica& replica() { return *replica_; }
  [[nodiscard]] check::InvariantChecker& checker() { return *checker_; }
  [[nodiscard]] std::uint64_t delivered() const {
    return checker_->delivered_count();
  }

 private:
  [[nodiscard]] std::unique_ptr<fault::ChaosTransport> make_chaos();
  void build_stack();
  /// Runs `action` every `period_us` until stop().
  void every(SimTime period_us, std::function<void()> action) {
    loop_.schedule(period_us, [this, period_us, action = std::move(action)] {
      action();
      if (!stopping_) {
        every(period_us, action);
      }
    });
  }
  [[nodiscard]] std::string metrics_port_text() const {
    return metrics_http_ != nullptr ? std::to_string(metrics_http_->port())
                                    : "none";
  }

  SharedFlags flags_;
  Config config_;
  /// Its deleter uninstalls the ring first, even mid-constructor.
  std::unique_ptr<obs::FlightRecorder, void (*)(obs::FlightRecorder*)> flight_;
  object::CatalogEntry entry_;
  net::EventLoop loop_;
  // Declared before every component that registers collectors, so it is
  // destroyed last.
  obs::MetricsRegistry registry_;
  StackOptions options_;
  net::UdpTransport udp_;
  std::unique_ptr<fault::ChaosTransport> chaos_;  ///< batching_ rides it
  BatchingTransport batching_;
  GroupView view_;
  std::shared_ptr<check::ViolationLog> log_;
  check::InvariantChecker* checker_ = nullptr;  // owned via replica_
  std::unique_ptr<Replica> replica_;
  /// flight.*, process.rss_bytes and replica.stable_states; declared after
  /// what it reads, so it unregisters first.
  obs::CollectorHandle process_collector_;
  std::unique_ptr<net::MetricsHttpServer> metrics_http_;
  std::vector<check::HistoryOp> history_;
  bool report_written_ = false;
  bool stopping_ = false;
};

}  // namespace cbc::runtime
