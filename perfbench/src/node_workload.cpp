// node_long and node_faulty_sim: cbc_node's round protocol (K FIFO-chained
// ops plus a `nop` round marker per member; the leader submits the
// object's sync op once it has delivered every member's marker; members
// start round r+1 once they deliver sync r) on the cbc_node stack.
//
//   node_long        3 members over UDP loopback, one EventLoop.
//   node_faulty_sim  5 members over SimTransport inside a seeded
//                    ChaosTransport plan, single-threaded in simulated time.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "apps/install.h"
#include "fault/chaos_transport.h"
#include "fault/fault_plan.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "obs/flight_recorder.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "stack.h"
#include "transport/sim_transport.h"
#include "util/ensure.h"
#include "util/serde.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::uint16_t> reserve_udp_ports(std::size_t count) {
  std::vector<int> fds;  // held until all are reserved: ports stay distinct
  std::vector<std::uint16_t> ports;
  bool ok = true;
  while (ok && ports.size() < count) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ok = fd >= 0 &&
         ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
             0 &&
         ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0;
    if (fd >= 0) {
      fds.push_back(fd);
    }
    ports.push_back(ntohs(bound.sin_port));
  }
  for (const int fd : fds) {
    ::close(fd);
  }
  cbc::require(ok, "perfbench: cannot reserve a loopback UDP port");
  return ports;
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

// node_long runs the cluster of README.md's `cbc_node --ops 50` example;
// node_faulty_sim runs node_main's default `--ops 20`, which is also the
// paper's typical cycle of f = 20 commutative requests (§6.1). Warm-up and
// timed rounds size an episode; they are not traffic.
struct NodeShape {
  std::size_t members = 3;
  std::uint64_t ops_per_round = 50;  ///< K: workload ops per member per round
  std::uint64_t warmup_rounds = 5;
  std::uint64_t timed_rounds = 40;
  bool sim = false;
  /// Leading timed rounds whose counters form the exactly-repeating count
  /// window (simulation only; 0 = every timed round).
  std::uint64_t count_rounds = 0;
};

NodeShape shape_of(const RunOptions& options) {
  NodeShape shape;
  if (options.workload == "node_faulty_sim") {
    shape = {5, 20, 5, 40, true, 20};
  }
  if (options.rounds > 0) {
    shape.timed_rounds = options.rounds;
    shape.count_rounds = std::min(shape.count_rounds, options.rounds);
  }
  return shape;
}

// Loss, duplication, delay and reordering on every directed link: the plan
// (and, below, the quiet 1000 us network) of tests/fault_plan_test.cpp's
// replay test, which runs the same Chaos -> Batching -> reliable OSend path.
std::string fault_plan_text(std::uint64_t seed) {
  return "seed " + std::to_string(seed) +
         "\nlink * * drop 0.15 dup 0.1 delay 200 900 reorder 0.1\n";
}

constexpr std::size_t kRing = 1 << 12;  // in-flight messages per sender, max

class NodeCluster;

/// One member: cbc_node's Node minus the process shell (signals, report
/// files, metrics HTTP, checkpoints), which the benchmark does not drive.
class NodeMember {
 public:
  NodeMember(NodeCluster& cluster, cbc::NodeId id, cbc::Transport& inner,
             const cbc::GroupView& view, cbc::check::InvariantMonitor& monitor,
             StackConfig config);

  void pump();

  [[nodiscard]] MemberStack& stack() { return stack_; }
  [[nodiscard]] const MemberStack& stack() const { return stack_; }
  [[nodiscard]] std::uint64_t syncs_applied() const { return syncs_applied_; }

 private:
  /// Adds cbc_node's delivery tap and oob handler to `config`.
  [[nodiscard]] static StackConfig member_config(NodeMember* self,
                                                 StackConfig config);
  void on_delivery(const cbc::Delivery& delivery);
  void on_applied(const cbc::Delivery& delivery);
  void maybe_close_round();

  NodeCluster& cluster_;
  cbc::NodeId id_;
  MemberStack stack_;
  std::int64_t current_round_ = -1;
  std::uint64_t syncs_delivered_ = 0;
  std::uint64_t syncs_submitted_ = 0;        // leader only
  std::uint64_t syncs_applied_ = 0;
  std::vector<std::uint64_t> marker_count_;  // leader: markers per sender
};

/// Every member of one group, on one EventLoop (UDP) or one Scheduler
/// (simulation), plus the benchmark's bookkeeping.
class NodeCluster {
 public:
  NodeCluster(const NodeShape& shape, std::uint64_t seed, bool traced);
  NodeCluster(const NodeCluster&) = delete;
  NodeCluster& operator=(const NodeCluster&) = delete;

  // --- Member-facing.
  [[nodiscard]] std::uint64_t round_limit() const { return limit_; }
  [[nodiscard]] std::uint64_t ops_per_round() const { return shape_.ops_per_round; }
  [[nodiscard]] std::uint64_t op_offset() const { return op_offset_; }
  [[nodiscard]] const cbc::object::CatalogEntry& entry() const { return entry_; }
  [[nodiscard]] const std::string& sync_kind() const { return sync_kind_; }
  [[nodiscard]] std::int64_t latency_now_ns() const;
  void post(std::function<void()> task);
  /// Records a submission made at `submit_ns` (latency clock); the local
  /// self-delivery may already have been applied inside the submit.
  void note_submit(cbc::MessageId id, bool workload, std::uint64_t round,
                   std::int64_t submit_ns);
  void note_applied(const cbc::Delivery& delivery, bool is_sync,
                    std::uint64_t sync_index);
  void note_progress();

  // --- Driver-facing.
  /// Runs rounds until every member has applied `rounds` syncs.
  void run_rounds(std::uint64_t rounds);
  /// The timed rounds of the episode.
  void run_timed(PhaseSamples& phase);
  void check(Verdict& verdict);
  [[nodiscard]] StackOptions member_options() const {
    return members_.front()->stack().options();
  }
  [[nodiscard]] const LayerInputs& layers() const { return layers_; }
  void print_counts(std::ostream& out) const;

 private:
  void drive();
  void arm_tick();
  void arm_watchdog();
  [[nodiscard]] std::map<std::string, double> counter_snapshot() const;
  void collect_layers(const PhaseSamples& phase);

  NodeShape shape_;
  bool traced_;
  std::uint64_t op_offset_;
  cbc::object::CatalogEntry entry_;
  std::string sync_kind_;
  // Obs sinks precede every component that registers with them.
  std::unique_ptr<cbc::obs::MetricsRegistry> registry_;

  // Execution context: an EventLoop (UDP) or a Scheduler (simulation).
  std::unique_ptr<cbc::net::EventLoop> loop_;
  std::unique_ptr<cbc::sim::Scheduler> scheduler_;
  std::unique_ptr<cbc::sim::SimNetwork> network_;
  std::vector<std::unique_ptr<cbc::net::UdpTransport>> udp_;
  std::vector<std::unique_ptr<cbc::SimTransport>> sim_;
  std::vector<std::unique_ptr<cbc::fault::ChaosTransport>> chaos_;
  cbc::check::InvariantMonitor monitor_;
  std::vector<std::unique_ptr<NodeMember>> members_;

  // Round control.
  std::uint64_t limit_ = 0;  ///< rounds members may start
  bool done_ = false;
  bool stalled_ = false;
  std::int64_t give_up_ns_ = 0;  ///< stall guard

  // Timed-round bookkeeping.
  struct InFlight {
    cbc::SeqNo seq = 0;          ///< which message owns the slot
    std::int64_t submit_ns = 0;  ///< latency clock
    std::uint64_t round = 0;
    std::uint32_t applies = 0;
    bool workload = false;
  };
  std::vector<std::vector<InFlight>> in_flight_;  // [sender][seq % kRing]
  std::vector<std::int64_t> round_first_submit_;
  std::vector<std::uint32_t> sync_applies_;
  PhaseSamples* phase_ = nullptr;
  std::uint64_t timed_first_round_ = UINT64_MAX;
  std::uint64_t timed_submitted_ = 0;
  std::uint64_t timed_completed_ = 0;
  std::optional<std::map<std::string, double>> count_window_;
  std::map<std::string, double> counters_at_start_;
  std::uint64_t flight_at_start_ = 0;
  std::uint64_t bytes_at_start_ = 0;
  std::array<std::uint64_t, kLayerCount> allocs_at_start_{};
  double loop_cpu_at_start_ = 0.0;
  LayerInputs layers_;
};

NodeMember::NodeMember(NodeCluster& cluster, cbc::NodeId id,
                       cbc::Transport& inner, const cbc::GroupView& view,
                       cbc::check::InvariantMonitor& monitor,
                       StackConfig config)
    : cluster_(cluster),
      id_(id),
      stack_(inner, view, monitor, member_config(this, std::move(config))),
      marker_count_(view.size(), 0) {
  stack_.replica().set_apply_observer(
      [this](const cbc::Delivery& delivery, const std::vector<std::uint8_t>&) {
        on_applied(delivery);
      });
}

StackConfig NodeMember::member_config(NodeMember* self, StackConfig config) {
  config.tap = [self](const cbc::Delivery& delivery) {
    self->on_delivery(delivery);
  };
  // No checkpoint is configured, so a state-transfer request finds
  // nothing to serve (node_main's on_oob without --checkpoint).
  config.oob_handler = [](cbc::NodeId, std::span<const std::uint8_t>) {};
  return config;
}

void NodeMember::on_delivery(const cbc::Delivery& delivery) {
  const std::string kind = cbc::CommutativitySpec::kind_of(delivery.label());
  if (kind == "nop") {
    std::uint64_t tag = 0;
    try {
      cbc::Reader reader(delivery.payload());
      tag = reader.u64();
    } catch (const cbc::SerdeError&) {
      return;
    }
    if ((tag & 3) == 0 && delivery.sender < marker_count_.size()) {
      marker_count_[delivery.sender] += 1;
    }
  } else if (kind == cluster_.sync_kind()) {
    syncs_delivered_ += 1;
  }
  cluster_.post([this] { pump(); });
}

void NodeMember::on_applied(const cbc::Delivery& delivery) {
  const bool is_sync =
      cbc::CommutativitySpec::kind_of(delivery.label()) == cluster_.sync_kind();
  cluster_.note_applied(delivery, is_sync, syncs_applied_);
  if (is_sync) {
    syncs_applied_ += 1;
  }
}

void NodeMember::pump() {
  const auto limit = static_cast<std::int64_t>(cluster_.round_limit());
  if (current_round_ + 1 < limit &&
      syncs_delivered_ >= static_cast<std::uint64_t>(current_round_ + 1)) {
    current_round_ += 1;
    const auto round = static_cast<std::uint64_t>(current_round_);
    for (std::uint64_t op = 0; op < cluster_.ops_per_round(); ++op) {
      const std::int64_t at = cluster_.latency_now_ns();
      const cbc::MessageId id = stack_.submit(
          cluster_.entry().workload_op(id_, round, op + cluster_.op_offset()));
      cluster_.note_submit(id, true, round, at);
    }
    const std::int64_t at = cluster_.latency_now_ns();
    const cbc::MessageId marker = stack_.submit(cbc::object::nop(round << 2));
    cluster_.note_submit(marker, false, round, at);
  }
  if (id_ == 0) {
    maybe_close_round();
  }
  cluster_.note_progress();
}

void NodeMember::maybe_close_round() {
  if (syncs_submitted_ != syncs_delivered_ ||
      syncs_submitted_ > static_cast<std::uint64_t>(current_round_) ||
      syncs_submitted_ >= cluster_.round_limit()) {
    return;
  }
  const std::uint64_t round = syncs_submitted_;
  for (const std::uint64_t markers : marker_count_) {
    if (markers < round + 1) {
      return;
    }
  }
  const std::int64_t at = cluster_.latency_now_ns();
  const cbc::MessageId sync = stack_.submit(cluster_.entry().sync_op);
  cluster_.note_submit(sync, false, round, at);
  syncs_submitted_ += 1;
}

NodeCluster::NodeCluster(const NodeShape& shape, std::uint64_t seed,
                         bool traced)
    : shape_(shape),
      traced_(traced),
      op_offset_(mix_seed(seed, 1) % 1024),
      in_flight_(shape.members, std::vector<InFlight>(kRing)) {
  cbc::apps::install_objects();
  const auto entry = cbc::object::Catalog::instance().find("counter");
  cbc::require(entry.has_value(), "perfbench: catalog is missing 'counter'");
  entry_ = *entry;
  sync_kind_ = entry_.sync_op.kind;
  if (traced_) {
    registry_ = std::make_unique<cbc::obs::MetricsRegistry>();
  }
  std::vector<cbc::NodeId> ids;
  for (std::size_t m = 0; m < shape_.members; ++m) {
    ids.push_back(static_cast<cbc::NodeId>(m));
  }
  const cbc::GroupView view(1, ids);
  std::vector<cbc::Transport*> inner;
  if (shape_.sim) {
    scheduler_ = std::make_unique<cbc::sim::Scheduler>();
    network_ = std::make_unique<cbc::sim::SimNetwork>(
        *scheduler_, std::make_unique<cbc::sim::UniformJitterLatency>(1000, 0),
        cbc::sim::FaultConfig{}, mix_seed(seed, 2));
    const cbc::fault::FaultPlan plan =
        cbc::fault::FaultPlan::parse(fault_plan_text(mix_seed(seed, 3)));
    for (std::size_t m = 0; m < shape_.members; ++m) {
      sim_.push_back(std::make_unique<cbc::SimTransport>(*network_));
      cbc::fault::ChaosTransport::Options chaos;
      chaos.plan = plan;
      chaos.local_node = static_cast<cbc::NodeId>(m);
      chaos.obs = hooks(registry_.get(), "fault");
      chaos_.push_back(
          std::make_unique<cbc::fault::ChaosTransport>(*sim_.back(), chaos));
      inner.push_back(chaos_.back().get());
    }
  } else {
    loop_ = std::make_unique<cbc::net::EventLoop>(
        cbc::net::EventLoop::Options{.force_poll = false, .wheel = {}});
    const cbc::net::ClusterConfig config =
        cbc::net::ClusterConfig::localhost(reserve_udp_ports(shape_.members));
    for (std::size_t m = 0; m < shape_.members; ++m) {
      cbc::net::UdpTransport::Options udp;
      udp.local_ids = {static_cast<cbc::NodeId>(m)};
      udp.obs = hooks(registry_.get(), "udp");
      udp_.push_back(
          std::make_unique<cbc::net::UdpTransport>(*loop_, config, udp));
      inner.push_back(udp_.back().get());
    }
  }
  for (std::size_t m = 0; m < shape_.members; ++m) {
    // Every member derives the commutativity table itself, as each
    // cbc_node process does.
    StackConfig config;
    config.spec = cbc::object::derive_commutativity(entry_.spec());
    config.object = entry_.name;
    config.registry = registry_.get();
    members_.push_back(std::make_unique<NodeMember>(
        *this, static_cast<cbc::NodeId>(m), *inner[m], view, monitor_,
        std::move(config)));
  }
  if (loop_ != nullptr) {
    arm_tick();
    arm_watchdog();
  }
}

void NodeCluster::arm_tick() {
  // cbc_node's 20ms liveness tick (one per member process there).
  loop_->schedule(20'000, [this] {
    for (auto& member : members_) {
      member->pump();
    }
    arm_tick();
  });
}

void NodeCluster::arm_watchdog() {
  loop_->schedule(250'000, [this] {
    if (now_ns() > give_up_ns_ && loop_->running()) {
      stalled_ = true;
      loop_->stop();
    }
    arm_watchdog();
  });
}

void NodeCluster::post(std::function<void()> task) {
  if (loop_ != nullptr) {
    loop_->post(std::move(task));
  } else {
    scheduler_->after(0, std::move(task));
  }
}

std::int64_t NodeCluster::latency_now_ns() const {
  return scheduler_ != nullptr ? scheduler_->now() * 1000 : now_ns();
}

void NodeCluster::note_submit(cbc::MessageId id, bool workload,
                              std::uint64_t round, std::int64_t submit_ns) {
  if (id.sender >= in_flight_.size()) {
    return;
  }
  InFlight& entry = in_flight_[id.sender][id.seq % kRing];
  const std::uint32_t applied = entry.seq == id.seq ? entry.applies : 0;
  entry = InFlight{id.seq, submit_ns, round, applied, workload};
  if (round >= round_first_submit_.size()) {
    round_first_submit_.resize(round + 1, -1);
  }
  if (round_first_submit_[round] < 0) {
    round_first_submit_[round] = submit_ns;
  }
  if (workload && phase_ != nullptr && round >= timed_first_round_) {
    timed_submitted_ += 1;
  }
}

void NodeCluster::note_applied(const cbc::Delivery& delivery, bool is_sync,
                               std::uint64_t sync_index) {
  const bool timing = phase_ != nullptr;
  if (delivery.sender < in_flight_.size()) {
    InFlight& entry = in_flight_[delivery.sender][delivery.id.seq % kRing];
    if (entry.seq != delivery.id.seq) {
      entry = InFlight{delivery.id.seq, 0, 0, 0, false};  // submit not noted yet
    }
    entry.applies += 1;
    if (entry.applies == members_.size() && entry.workload && timing &&
        entry.round >= timed_first_round_) {
      phase_->ops += 1;
      phase_->op_latency_us.push_back(
          static_cast<double>(latency_now_ns() - entry.submit_ns) / 1e3);
      phase_->completion_ns.push_back(now_ns());
    }
  }
  if (!is_sync) {
    return;
  }
  if (sync_index >= sync_applies_.size()) {
    sync_applies_.resize(sync_index + 1, 0);
  }
  sync_applies_[sync_index] += 1;
  if (sync_applies_[sync_index] != members_.size() || !timing ||
      sync_index < timed_first_round_) {
    return;
  }
  phase_->stable_point_us.push_back(
      static_cast<double>(latency_now_ns() - round_first_submit_[sync_index]) /
      1e3);
  phase_->round_end_ns.push_back(now_ns());
  const std::uint64_t closed = sync_index + 1 - timed_first_round_;
  if (SpanRecorder* recorder = active_recorder()) {
    recorder->set_tenth(closed * kDeciles / shape_.timed_rounds);
  }
  if (traced_ && closed == shape_.count_rounds) {
    // Deferred to its own event so the snapshot never runs inside the
    // delivery path; in simulation the event order is still fixed.
    post([this] { count_window_ = counter_snapshot(); });
  }
}

void NodeCluster::note_progress() {
  const bool all = std::all_of(
      members_.begin(), members_.end(),
      [&](const auto& member) { return member->syncs_applied() >= limit_; });
  if (!done_ && all) {
    done_ = true;
    if (loop_ != nullptr) {
      loop_->stop();
    }
  }
}

void NodeCluster::drive() {
  done_ = false;
  give_up_ns_ = now_ns() + 60'000'000'000LL;
  for (auto& member : members_) {
    NodeMember* raw = member.get();
    post([raw] { raw->pump(); });
  }
  if (loop_ != nullptr) {
    loop_->run();
    return;
  }
  std::uint64_t steps = 0;
  while (!done_) {
    if (!scheduler_->step()) {
      stalled_ = true;  // quiescent short of the target: a message was lost
      return;
    }
    if ((++steps & 1023) == 0 && now_ns() > give_up_ns_) {
      stalled_ = true;
      return;
    }
  }
}

void NodeCluster::run_rounds(std::uint64_t rounds) {
  limit_ = rounds;
  drive();
}

std::map<std::string, double> NodeCluster::counter_snapshot() const {
  std::map<std::string, double> out;
  if (registry_ != nullptr) {
    out = registry_->snapshot();
  }
  double datagrams = 0;
  for (const auto& udp : udp_) {
    datagrams += static_cast<double>(udp->stats().datagrams_sent);
  }
  if (network_ != nullptr) {
    datagrams += static_cast<double>(network_->stats().sent);
  }
  out["net.datagrams"] = datagrams;
  return out;
}

void NodeCluster::run_timed(PhaseSamples& phase) {
  phase_ = &phase;
  timed_first_round_ = limit_;
  if (traced_) {
    counters_at_start_ = counter_snapshot();
    allocs_at_start_ = allocation_counts();
    cbc::obs::FlightRecorder* flight = cbc::obs::flight_recorder();
    flight_at_start_ = flight != nullptr ? flight->total_recorded() : 0;
    for (const auto& member : members_) {
      bytes_at_start_ += member->stack().inner_bytes();
    }
    loop_cpu_at_start_ = thread_cpu_seconds();
  }
  SpanRecorder* recorder = traced_ ? active_recorder() : nullptr;
  if (recorder != nullptr) {
    recorder->set_tenth(0);
    recorder->set_active(true);
  }
  phase.start_ns = now_ns();
  const double cpu_at_start = process_cpu_seconds();
  run_rounds(timed_first_round_ + shape_.timed_rounds);
  phase.end_ns = now_ns();
  phase.cpu_s = process_cpu_seconds() - cpu_at_start;
  if (recorder != nullptr) {
    recorder->set_active(false);
  }
  timed_completed_ = phase.ops;
  if (traced_) {
    collect_layers(phase);
  }
  phase_ = nullptr;
}

void NodeCluster::collect_layers(const PhaseSamples& phase) {
  layers_.ops = phase.ops;
  layers_.wall_s = static_cast<double>(phase.end_ns - phase.start_ns) / 1e9;
  layers_.loop_cpu_s = thread_cpu_seconds() - loop_cpu_at_start_;
  const std::map<std::string, double> end = counter_snapshot();
  layers_.exact_counts = shape_.count_rounds > 0 && count_window_.has_value();
  const std::map<std::string, double>& window =
      layers_.exact_counts ? *count_window_ : end;
  layers_.count_ops = layers_.exact_counts
                          ? shape_.count_rounds * members_.size() *
                                shape_.ops_per_round
                          : phase.ops;
  for (const auto& [name, value] : window) {
    const auto start = counters_at_start_.find(name);
    layers_.counters[name] =
        value - (start == counters_at_start_.end() ? 0.0 : start->second);
  }
  layers_.gauges = end;
  const auto allocs = allocation_counts();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers_.allocs[i] = allocs[i] - allocs_at_start_[i];
  }
  cbc::obs::FlightRecorder* flight = cbc::obs::flight_recorder();
  layers_.flight_records =
      (flight != nullptr ? flight->total_recorded() : 0) - flight_at_start_;
  std::uint64_t bytes = 0;
  double graph = 0, retained = 0, stable = 0;
  for (auto& member : members_) {
    bytes += member->stack().inner_bytes();
    graph += static_cast<double>(member->stack().replica().osend().graph().size());
    retained += static_cast<double>(
        member->stack().checker().delivered_sequence().size());
    stable +=
        static_cast<double>(member->stack().replica().stable_history().size());
  }
  const auto n = static_cast<double>(members_.size());
  layers_.net_bytes = bytes - bytes_at_start_;
  layers_.graph_nodes = graph / n;
  layers_.check_retained = retained / n;
  layers_.stable_states = stable / n;
}

void NodeCluster::check(Verdict& verdict) {
  verdict.attempted += timed_submitted_;
  verdict.failed += timed_submitted_ - std::min(timed_submitted_, timed_completed_);
  if (stalled_) {
    verdict.fail("node: the round protocol stalled before every member "
                 "applied the final sync");
  }
  if (!monitor_.check_quiescent()) {
    verdict.fail("node: invariant monitor: " + monitor_.report().substr(0, 400));
  }
  const NodeMember& first = *members_.front();
  for (const auto& member : members_) {
    if (member->syncs_applied() != limit_) {
      verdict.fail("node: a member applied " +
                   std::to_string(member->syncs_applied()) + " of " +
                   std::to_string(limit_) + " syncs");
    }
    if (member->stack().checker().stable_digests() !=
        first.stack().checker().stable_digests()) {
      verdict.fail("node: stable digest chains differ between members");
    }
    if (!(member->stack().replica().last_stable_state() ==
          first.stack().replica().last_stable_state())) {
      verdict.fail("node: final stable states differ between members");
    }
  }
}

void NodeCluster::print_counts(std::ostream& out) const {
  std::uint64_t deliveries = 0;
  for (const auto& member : members_) {
    deliveries += member->stack().checker().delivered_sequence().size();
  }
  std::uint64_t faults = 0;
  for (const auto& chaos : chaos_) {
    const cbc::fault::ChaosTransport::ChaosStats s = chaos->stats();
    faults += s.drops + s.duplicates + s.delays + s.reorders +
              s.partition_drops + s.crash_drops;
  }
  const std::map<std::string, double> counters = counter_snapshot();
  const auto count = [&](const std::string& name) -> std::string {
    const auto it = counters.find(name);
    return it == counters.end()
               ? "n/a"
               : std::to_string(static_cast<std::uint64_t>(it->second));
  };
  const auto& digests = members_.front()->stack().checker().stable_digests();
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(digests.empty() ? 0 : digests.back()));
  out << "# counts traced=" << traced_ << " deliveries=" << deliveries
      << " retransmissions=" << count("reliable.retransmissions")
      << " dup_drops=" << count("reliable.duplicates_suppressed")
      << " fault_decisions=" << faults << " digest_count=" << digests.size()
      << " digest=" << digest << "\n";
}

}  // namespace

Episode run_node_episode(const RunOptions& options, std::uint64_t episode_seed,
                         bool traced, std::ostream* parity,
                         std::ostream& counts) {
  const NodeShape shape = shape_of(options);
  Episode episode;
  const std::int64_t start = now_ns();
  NodeCluster cluster(shape, episode_seed, traced);
  cluster.run_rounds(shape.warmup_rounds);
  episode.setup_s = static_cast<double>(now_ns() - start) / 1e9;
  std::ostringstream unprinted;
  if (!check_parity(cluster.member_options(), traced,
                    parity != nullptr ? *parity : unprinted)) {
    episode.verdict.fail("stack options differ from the production binaries");
  }
  cluster.run_timed(episode.phase);
  cluster.check(episode.verdict);
  if (traced) {
    episode.layers = cluster.layers();
  }
  if (shape.sim) {
    cluster.print_counts(counts);
  }
  return episode;
}

}  // namespace perfbench
