// ClusterHarness — forks N cbc_node processes on loopback UDP and drives
// a real multi-process run: start, watch progress files, signal graceful
// departures, restart members as observers, collect and parse the final
// key=value reports. The binary path comes from the CBC_NODE_BIN compile
// definition (set by tests/CMakeLists.txt to the built cbc_node target).
//
// Supports multiple INDEPENDENT groups side by side (Options::groups):
// each group gets its own freshly-reserved port block, its own config
// file, and its own artifact subdirectory (group 0 keeps the flat
// layout, so single-group callers and their historical paths are
// unchanged) — no fixed port-range assumption, no shared report/
// checkpoint/history paths between groups. The single-argument API
// operates on group 0; every method has a (group, id) overload.
#pragma once

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/node_report.h"
#include "common/temp_dir.h"
#include "common/udp_ports.h"
#include "util/ensure.h"

namespace cbc::testkit {

class ClusterHarness {
 public:
  struct Options {
    /// Independent causal groups to host side by side. Each group is a
    /// complete cluster of `nodes` members with its own ports, config,
    /// and artifact paths.
    std::size_t groups = 1;
    std::size_t nodes = 3;
    std::uint64_t rounds = 10;  ///< --rounds; causal only (total is one shot)
    std::uint64_t ops_per_round = 20;
    std::string discipline = "causal";
    /// Replicated object to run (--object). Empty resolves to the
    /// CBC_CLUSTER_OBJECT environment variable (the CI matrix knob),
    /// falling back to "counter".
    std::string object{};
    /// Start every node with --record-history history_path(id): each
    /// member persists its delivery history for cbc_check at SIGTERM.
    bool record_history = false;
    /// Start every node with tracing (--trace trace_path(id)) and an
    /// ephemeral metrics endpoint + snapshot file. The report then carries
    /// metrics_port=..., and terminate_node() leaves a per-node Chrome
    /// trace file behind for obs::merge_trace_files.
    bool observability = false;
    /// FaultPlan text (fault/fault_plan.h format). When non-empty it is
    /// written to dir()/fault.txt and every node starts with
    /// --fault-plan pointing at it.
    std::string fault_plan{};
    /// Start every node with --checkpoint checkpoint_path(id): persist a
    /// recovery checkpoint at each stable point.
    bool checkpoints = false;
    /// When > 0, every node runs the heartbeat failure detector
    /// (--suspect-timeout-ms); heartbeat_ms additionally overrides the
    /// heartbeat send period (default: suspect/4).
    std::uint64_t suspect_timeout_ms = 0;
    std::uint64_t heartbeat_ms = 0;
  };

  explicit ClusterHarness(Options options) : options_(std::move(options)) {
    if (options_.object.empty()) {
      const char* env = std::getenv("CBC_CLUSTER_OBJECT");
      options_.object = env != nullptr && *env != '\0' ? env : "counter";
    }
    require(options_.groups >= 1, "ClusterHarness: groups must be >= 1");
    for (std::size_t g = 0; g < options_.groups; ++g) {
      if (g > 0) {
        require(::mkdir(group_dir(g).c_str(), 0755) == 0,
                "ClusterHarness: cannot create group directory");
      }
      // One port block per group, reserved independently — groups never
      // assume adjacent or disjoint fixed ranges.
      const auto ports = reserve_udp_ports(options_.nodes);
      std::ofstream config(config_path(g));
      for (std::size_t i = 0; i < options_.nodes; ++i) {
        config << i << " 127.0.0.1:" << ports[i] << "\n";
      }
    }
    if (!options_.fault_plan.empty()) {
      std::ofstream plan(fault_plan_path());
      plan << options_.fault_plan;
    }
  }

  ~ClusterHarness() {
    for (auto& [key, pid] : pids_) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
      }
    }
  }

  /// Forks and execs one node (extra_args appended, e.g. "--observer").
  void start_node(std::size_t id,
                  const std::vector<std::string>& extra_args = {}) {
    start_node(0, id, extra_args);
  }

  void start_node(std::size_t group, std::size_t id,
                  const std::vector<std::string>& extra_args) {
    require(group < options_.groups, "start_node: group out of range");
    const pid_t pid = ::fork();
    require(pid >= 0, "ClusterHarness: fork failed");
    if (pid == 0) {
      std::vector<std::string> args = {
          CBC_NODE_BIN,
          "--config", config_path(group),
          "--id", std::to_string(id),
          "--ops", std::to_string(options_.ops_per_round),
          "--discipline", options_.discipline,
          "--object", options_.object,
          "--report", report_path(group, id),
          "--progress", progress_path(group, id),
          // File-backed flight ring: survives SIGKILL, so postmortem
          // tests can decode what a killed member was doing.
          "--flight", flight_path(group, id),
      };
      if (options_.discipline == "causal") {
        // Total order runs one shot; cbc_node rejects --rounds there.
        args.push_back("--rounds");
        args.push_back(std::to_string(options_.rounds));
      }
      if (options_.record_history) {
        args.push_back("--record-history");
        args.push_back(history_path(group, id));
      }
      if (!options_.fault_plan.empty()) {
        args.push_back("--fault-plan");
        args.push_back(fault_plan_path());
      }
      if (options_.checkpoints) {
        args.push_back("--checkpoint");
        args.push_back(checkpoint_path(group, id));
      }
      if (options_.suspect_timeout_ms > 0) {
        args.push_back("--suspect-timeout-ms");
        args.push_back(std::to_string(options_.suspect_timeout_ms));
      }
      if (options_.heartbeat_ms > 0) {
        args.push_back("--heartbeat-ms");
        args.push_back(std::to_string(options_.heartbeat_ms));
      }
      if (options_.observability) {
        args.push_back("--trace");
        args.push_back(trace_path(group, id));
        args.push_back("--metrics-port");
        args.push_back("0");
        args.push_back("--metrics-snapshot");
        args.push_back(metrics_snapshot_path(group, id));
      }
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) {
        argv.push_back(arg.data());
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);  // exec failed
    }
    pids_[{group, id}] = pid;
  }

  void start_all() {
    for (std::size_t g = 0; g < options_.groups; ++g) {
      for (std::size_t i = 0; i < options_.nodes; ++i) {
        start_node(g, i, {});
      }
    }
  }

  /// Blocks until node `id`'s progress file reports `key` >= `value`
  /// (progress files are atomically replaced, so reads are consistent).
  [[nodiscard]] bool wait_for_progress(std::size_t id, const std::string& key,
                                       std::int64_t value,
                                       int timeout_ms = 120'000) {
    return wait_for_progress(0, id, key, value, timeout_ms);
  }

  [[nodiscard]] bool wait_for_progress(std::size_t group, std::size_t id,
                                       const std::string& key,
                                       std::int64_t value,
                                       int timeout_ms = 120'000) {
    for (int waited = 0; waited < timeout_ms; waited += 20) {
      const std::optional<NodeReport> progress =
          parse_kv_file(progress_path(group, id));
      if (progress) {
        const auto entry = progress->find(key);
        if (entry != progress->end() &&
            std::stoll(entry->second) >= value) {
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Asks node `id` to depart gracefully (it broadcasts a departure
  /// marker, then lingers to serve retransmissions until terminated).
  void signal_departure(std::size_t id) { signal_departure(0, id); }

  void signal_departure(std::size_t group, std::size_t id) {
    require(pids_.count({group, id}) != 0,
            "signal_departure: node not running");
    ::kill(pids_[{group, id}], SIGUSR1);
  }

  /// Blocks until node `id` has written a report with done=1 (or, for a
  /// departed node, any report at all).
  // Generous default: sanitizer-instrumented nodes on loaded CI runners
  // can be an order of magnitude slower than a quiet machine.
  [[nodiscard]] bool wait_for_report(std::size_t id, bool require_done,
                                     int timeout_ms = 300'000) {
    return wait_for_report(0, id, require_done, timeout_ms);
  }

  [[nodiscard]] bool wait_for_report(std::size_t group, std::size_t id,
                                     bool require_done,
                                     int timeout_ms = 300'000) {
    for (int waited = 0; waited < timeout_ms; waited += 20) {
      const std::optional<NodeReport> report =
          parse_kv_file(report_path(group, id));
      if (report && (!require_done || report->at("done") == "1")) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// SIGTERM + reap: the node writes its final report and exits.
  void terminate_node(std::size_t id) { terminate_node(0, id); }

  void terminate_node(std::size_t group, std::size_t id) {
    const auto entry = pids_.find({group, id});
    if (entry == pids_.end() || entry->second <= 0) {
      return;
    }
    ::kill(entry->second, SIGTERM);
    int status = 0;
    ::waitpid(entry->second, &status, 0);
    pids_.erase(entry);
  }

  void terminate_all() {
    std::vector<std::pair<std::size_t, std::size_t>> keys;
    for (const auto& [key, pid] : pids_) {
      keys.push_back(key);
    }
    for (const auto& [group, id] : keys) {
      terminate_node(group, id);
    }
  }

  /// SIGKILL (no final report, no graceful departure) + reap.
  void kill_node(std::size_t id) { kill_node(0, id); }

  void kill_node(std::size_t group, std::size_t id) {
    const auto entry = pids_.find({group, id});
    require(entry != pids_.end(), "kill_node: node not running");
    ::kill(entry->second, SIGKILL);
    int status = 0;
    ::waitpid(entry->second, &status, 0);
    pids_.erase(entry);
  }

  [[nodiscard]] std::optional<NodeReport> report(std::size_t id) const {
    return report(0, id);
  }
  [[nodiscard]] std::optional<NodeReport> report(std::size_t group,
                                                 std::size_t id) const {
    return parse_kv_file(report_path(group, id));
  }

  /// Group 0 keeps the historical flat layout under dir(); group g > 0
  /// lives in dir()/g<g>/.
  [[nodiscard]] std::string group_dir(std::size_t group) const {
    return group == 0 ? dir() : dir() + "/g" + std::to_string(group);
  }
  [[nodiscard]] std::string config_path(std::size_t group = 0) const {
    return group_dir(group) + "/cluster.txt";
  }
  [[nodiscard]] std::string report_path(std::size_t id) const {
    return report_path(0, id);
  }
  [[nodiscard]] std::string report_path(std::size_t group,
                                        std::size_t id) const {
    return group_dir(group) + "/report" + std::to_string(id) + ".txt";
  }
  [[nodiscard]] std::string progress_path(std::size_t id) const {
    return progress_path(0, id);
  }
  [[nodiscard]] std::string progress_path(std::size_t group,
                                          std::size_t id) const {
    return group_dir(group) + "/progress" + std::to_string(id) + ".txt";
  }
  [[nodiscard]] std::string flight_path(std::size_t id) const {
    return flight_path(0, id);
  }
  [[nodiscard]] std::string flight_path(std::size_t group,
                                        std::size_t id) const {
    return group_dir(group) + "/flight" + std::to_string(id) + ".bin";
  }
  [[nodiscard]] std::string trace_path(std::size_t id) const {
    return trace_path(0, id);
  }
  [[nodiscard]] std::string trace_path(std::size_t group,
                                       std::size_t id) const {
    return group_dir(group) + "/trace" + std::to_string(id) + ".json";
  }
  [[nodiscard]] std::string metrics_snapshot_path(std::size_t id) const {
    return metrics_snapshot_path(0, id);
  }
  [[nodiscard]] std::string metrics_snapshot_path(std::size_t group,
                                                  std::size_t id) const {
    return group_dir(group) + "/metrics" + std::to_string(id) + ".prom";
  }
  [[nodiscard]] std::string checkpoint_path(std::size_t id) const {
    return checkpoint_path(0, id);
  }
  [[nodiscard]] std::string checkpoint_path(std::size_t group,
                                            std::size_t id) const {
    return group_dir(group) + "/checkpoint" + std::to_string(id) + ".bin";
  }
  [[nodiscard]] std::string history_path(std::size_t id) const {
    return history_path(0, id);
  }
  [[nodiscard]] std::string history_path(std::size_t group,
                                         std::size_t id) const {
    return group_dir(group) + "/history" + std::to_string(id) + ".bin";
  }
  [[nodiscard]] const std::string& object() const {
    return options_.object;
  }
  [[nodiscard]] std::string fault_plan_path() const {
    return dir() + "/fault.txt";
  }
  /// The node's live metrics endpoint port, parsed from its report
  /// (written once the node reports; requires Options::observability).
  [[nodiscard]] std::optional<int> metrics_port(std::size_t id) const {
    const std::optional<NodeReport> node_report = report(id);
    if (!node_report) {
      return std::nullopt;
    }
    const auto entry = node_report->find("metrics_port");
    if (entry == node_report->end() || entry->second == "none") {
      return std::nullopt;
    }
    return std::stoi(entry->second);
  }
  [[nodiscard]] const std::string& dir() const { return dir_.path(); }

  /// Kept as a member for existing callers; the shared implementation
  /// lives in common/node_report.h.
  [[nodiscard]] static std::optional<NodeReport> parse_kv_file(
      const std::string& path) {
    return testkit::parse_kv_file(path);
  }

 private:
  Options options_;
  TempDir dir_{"/tmp/cbc_cluster_"};  // removed unless the test failed
  std::map<std::pair<std::size_t, std::size_t>, pid_t> pids_;
};

}  // namespace cbc::testkit
