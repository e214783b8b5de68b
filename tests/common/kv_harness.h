// KvHarness — forks a full sharded cbc_kv deployment on loopback UDP:
// S shards x R replicas, each shard an independent causal group with a
// freshly-reserved port block (no fixed-range assumption), plus one
// router-slot port per shard for the driver's client socket. The layout
// file is written once and shared by every process; per-replica reports,
// histories, and metrics snapshots land under one temp directory. The
// binary path comes from the CBC_KV_BIN compile definition (set by
// tests/CMakeLists.txt to the built cbc_kv target).
//
// Shape of a run:
//   KvHarness kv({.shards = 4, .replicas = 3});
//   kv.start_all();
//   ASSERT_EQ(kv.run_driver(3, 3, 4), 0);   // driver shuts servers down
//   ASSERT_TRUE(kv.wait_for_all_reports());
#pragma once

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
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
#include "kv/shard_map.h"
#include "util/ensure.h"

namespace cbc::testkit {

class KvHarness {
 public:
  struct Options {
    std::size_t shards = 2;
    std::size_t replicas = 3;
    /// Start every replica with --record-history history_path(shard, rank).
    bool record_history = true;
    /// Start every replica with --metrics-snapshot (written at shutdown).
    bool metrics_snapshots = false;
    /// FaultPlan text written to dir()/fault.txt and passed to every
    /// replica via --fault-plan (ChaosTransport delay/drop schedules).
    std::string fault_plan{};
    /// Server-side park deadline for causally-stale reads (--wait-timeout-ms).
    std::uint64_t wait_timeout_ms = 0;
  };

  explicit KvHarness(Options options) : options_(std::move(options)) {
    require(options_.shards >= 1 && options_.replicas >= 1,
            "KvHarness: need at least one shard and one replica");
    // One independently-reserved block per shard: shard groups never
    // assume adjacent or disjoint fixed ranges (same rule as the
    // multi-group ClusterHarness).
    std::vector<std::uint16_t> ports;
    for (std::size_t s = 0; s < options_.shards; ++s) {
      const auto block = reserve_udp_ports(options_.replicas + 1);
      ports.insert(ports.end(), block.begin(), block.end());
    }
    layout_ = kv::KvLayout::localhost(options_.shards, options_.replicas,
                                      ports);
    std::ofstream layout_file(layout_path());
    layout_file << layout_.encode_text();
    if (!options_.fault_plan.empty()) {
      std::ofstream plan(fault_plan_path());
      plan << options_.fault_plan;
    }
  }

  ~KvHarness() {
    for (auto& [key, pid] : pids_) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
      }
    }
  }

  void start_replica(std::size_t shard, std::size_t rank,
                     const std::vector<std::string>& extra_args = {}) {
    require(shard < options_.shards && rank < options_.replicas,
            "start_replica: shard/rank out of range");
    const pid_t pid = ::fork();
    require(pid >= 0, "KvHarness: fork failed");
    if (pid == 0) {
      std::vector<std::string> args = {
          CBC_KV_BIN,
          "server",
          "--layout", layout_path(),
          "--shard", std::to_string(shard),
          "--rank", std::to_string(rank),
          "--report", report_path(shard, rank),
          "--progress", progress_path(shard, rank),
          // File-backed flight ring: survives SIGKILL, so postmortem
          // tests can decode what a killed replica was doing.
          "--flight", flight_path(shard, rank),
      };
      if (options_.record_history) {
        args.push_back("--record-history");
        args.push_back(history_path(shard, rank));
      }
      if (options_.metrics_snapshots) {
        args.push_back("--metrics-port");
        args.push_back("0");
        args.push_back("--metrics-snapshot");
        args.push_back(metrics_snapshot_path(shard, rank));
      }
      if (!options_.fault_plan.empty()) {
        args.push_back("--fault-plan");
        args.push_back(fault_plan_path());
      }
      if (options_.wait_timeout_ms > 0) {
        args.push_back("--wait-timeout-ms");
        args.push_back(std::to_string(options_.wait_timeout_ms));
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
    pids_[{shard, rank}] = pid;
  }

  void start_all() {
    for (std::size_t s = 0; s < options_.shards; ++s) {
      for (std::size_t r = 0; r < options_.replicas; ++r) {
        start_replica(s, r);
      }
    }
  }

  /// Runs the built-in mixed cross-shard workload driver to completion
  /// and returns its exit status (0 = all ops ok, no value mismatches,
  /// clean shutdown). The driver ends by asking every replica to drain
  /// and exit, so wait_for_all_reports() afterwards observes the final
  /// per-replica reports.
  [[nodiscard]] int run_driver(std::uint64_t sessions, std::uint64_t rounds,
                               std::uint64_t ops,
                               const std::vector<std::string>& extra_args =
                                   {}) {
    const pid_t pid = ::fork();
    require(pid >= 0, "KvHarness: fork failed");
    if (pid == 0) {
      std::vector<std::string> args = {
          CBC_KV_BIN,
          "drive",
          "--layout", layout_path(),
          "--sessions", std::to_string(sessions),
          "--rounds", std::to_string(rounds),
          "--ops", std::to_string(ops),
          "--report", driver_report_path(),
      };
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
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  /// Blocks until every replica has written its final (done=1) report
  /// and exited; reaps the processes.
  [[nodiscard]] bool wait_for_all_reports(int timeout_ms = 300'000) {
    for (std::size_t s = 0; s < options_.shards; ++s) {
      for (std::size_t r = 0; r < options_.replicas; ++r) {
        if (!wait_for_report(s, r, timeout_ms)) {
          return false;
        }
      }
    }
    reap_all();
    return true;
  }

  [[nodiscard]] bool wait_for_report(std::size_t shard, std::size_t rank,
                                     int timeout_ms = 300'000) {
    for (int waited = 0; waited < timeout_ms; waited += 20) {
      const std::optional<NodeReport> report =
          parse_kv_file(report_path(shard, rank));
      if (report && report->count("done") != 0 && report->at("done") == "1") {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// SIGTERM + reap one replica (drains, writes report, exits).
  void terminate_replica(std::size_t shard, std::size_t rank) {
    const auto entry = pids_.find({shard, rank});
    if (entry == pids_.end() || entry->second <= 0) {
      return;
    }
    ::kill(entry->second, SIGTERM);
    int status = 0;
    ::waitpid(entry->second, &status, 0);
    pids_.erase(entry);
  }

  /// Reaps replicas that exited on their own (driver-initiated drain).
  void reap_all() {
    for (auto& [key, pid] : pids_) {
      if (pid > 0) {
        int status = 0;
        ::waitpid(pid, &status, 0);
      }
    }
    pids_.clear();
  }

  [[nodiscard]] std::optional<NodeReport> report(std::size_t shard,
                                                 std::size_t rank) const {
    return parse_kv_file(report_path(shard, rank));
  }
  [[nodiscard]] std::optional<NodeReport> driver_report() const {
    return parse_kv_file(driver_report_path());
  }

  [[nodiscard]] const kv::KvLayout& layout() const { return layout_; }
  [[nodiscard]] const std::string& dir() const { return dir_.path(); }
  [[nodiscard]] std::string layout_path() const {
    return dir() + "/layout.txt";
  }
  [[nodiscard]] std::string fault_plan_path() const {
    return dir() + "/fault.txt";
  }
  [[nodiscard]] std::string driver_report_path() const {
    return dir() + "/driver.txt";
  }
  [[nodiscard]] std::string report_path(std::size_t shard,
                                        std::size_t rank) const {
    return dir() + "/report_s" + std::to_string(shard) + "_r" +
           std::to_string(rank) + ".txt";
  }
  [[nodiscard]] std::string progress_path(std::size_t shard,
                                          std::size_t rank) const {
    return dir() + "/progress_s" + std::to_string(shard) + "_r" +
           std::to_string(rank) + ".txt";
  }
  [[nodiscard]] std::string history_path(std::size_t shard,
                                         std::size_t rank) const {
    return dir() + "/history_s" + std::to_string(shard) + "_r" +
           std::to_string(rank) + ".bin";
  }
  [[nodiscard]] std::string metrics_snapshot_path(std::size_t shard,
                                                  std::size_t rank) const {
    return dir() + "/metrics_s" + std::to_string(shard) + "_r" +
           std::to_string(rank) + ".prom";
  }
  [[nodiscard]] std::string flight_path(std::size_t shard,
                                        std::size_t rank) const {
    return dir() + "/flight_s" + std::to_string(shard) + "_r" +
           std::to_string(rank) + ".bin";
  }
  /// Every per-replica progress path — the cbc_top --report discovery
  /// set for a live cluster.
  [[nodiscard]] std::vector<std::string> progress_paths() const {
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < options_.shards; ++s) {
      for (std::size_t r = 0; r < options_.replicas; ++r) {
        paths.push_back(progress_path(s, r));
      }
    }
    return paths;
  }
  /// Every per-replica history path, shard-major — the argument order
  /// cbc_check --kv-replicas expects.
  [[nodiscard]] std::vector<std::string> history_paths() const {
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < options_.shards; ++s) {
      for (std::size_t r = 0; r < options_.replicas; ++r) {
        paths.push_back(history_path(s, r));
      }
    }
    return paths;
  }

 private:
  Options options_;
  TempDir dir_{"/tmp/cbc_kv_"};  // removed unless the test failed
  kv::KvLayout layout_;
  std::map<std::pair<std::size_t, std::size_t>, pid_t> pids_;
};

}  // namespace cbc::testkit
