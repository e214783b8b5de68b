// Multi-process sharded KV tests: S x R forked cbc_kv replicas on
// loopback UDP plus the workload driver, exercising the §5.2 scaling
// story end-to-end — independent causal groups per shard, client-side
// context tokens carrying causality ACROSS shards, digest-equal replicas
// within each shard, and a merged multi-shard session history the
// offline oracle (cbc_check --kv-replicas) accepts. A ChaosTransport
// variant delays intra-shard broadcasts to force context waits and
// proves a causally-stale read is never served.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/child_process.h"
#include "common/kv_harness.h"
#include "common/temp_dir.h"
#include "obs/json_lite.h"

namespace cbc {
namespace {

using testkit::KvHarness;
using testkit::NodeReport;

/// Runs cbc_check --kv-replicas R --site-local get over the recorded
/// histories; returns its exit status (0 = CC, CM, and CCv all hold on
/// the merged per-rank histories).
int run_kv_check(const KvHarness& kv, std::size_t replicas) {
  std::vector<std::string> args = {
      CBC_CHECK_BIN, "--kv-replicas", std::to_string(replicas),
      "--site-local", "get"};
  for (const std::string& path : kv.history_paths()) {
    args.push_back(path);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs cbc_top --json with every replica's progress file as a
/// discovery input, stdout captured to `out_path`; returns exit status.
int run_top(const KvHarness& kv, const std::string& out_path) {
  std::vector<std::string> args = {CBC_TOP_BIN, "--json"};
  for (const std::string& path : kv.progress_paths()) {
    args.push_back("--report");
    args.push_back(path);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    const int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0) {
      std::_Exit(126);
    }
    ::dup2(fd, STDOUT_FILENO);
    ::close(fd);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(KvCluster, FourShardsTimesThreeReplicasServeAMixedWorkload) {
  // The issue's acceptance scenario: 4 shards x 3 replicas, 3 sessions
  // running mixed get/put rounds that read each other's keys across
  // shards through adopted context tokens, closed by a fence round.
  KvHarness kv({.shards = 4, .replicas = 3, .metrics_snapshots = true});
  kv.start_all();
  ASSERT_EQ(kv.run_driver(/*sessions=*/3, /*rounds=*/3, /*ops=*/4), 0);
  ASSERT_TRUE(kv.wait_for_all_reports());

  const NodeReport driver = *kv.driver_report();
  EXPECT_EQ(driver.at("done"), "1");
  // The client-side staleness oracle: every cross-shard read after token
  // adoption observed the current round's value.
  EXPECT_EQ(driver.at("value_mismatches"), "0");
  EXPECT_EQ(driver.at("failures"), "0");
  EXPECT_EQ(driver.at("shutdown_failures"), "0");

  for (std::size_t shard = 0; shard < 4; ++shard) {
    const NodeReport leader = *kv.report(shard, 0);
    EXPECT_EQ(leader.at("done"), "1");
    EXPECT_EQ(leader.at("violations"), "0");
    EXPECT_EQ(leader.at("malformed"), "0");
    // The driver's final fence produced a digest for this shard (its
    // value is the fence's sub-map digest, reported for the record).
    EXPECT_NE(driver.at("digest_shard" + std::to_string(shard)), "");
    // Within a shard every replica closed on the same stable digest chain.
    for (std::size_t rank = 1; rank < 3; ++rank) {
      const NodeReport report = *kv.report(shard, rank);
      EXPECT_EQ(report.at("done"), "1");
      EXPECT_EQ(report.at("violations"), "0");
      EXPECT_EQ(report.at("digest"), leader.at("digest"))
          << "shard " << shard << " rank " << rank;
      EXPECT_EQ(report.at("digest_count"), leader.at("digest_count"));
      EXPECT_EQ(report.at("delivered"), leader.at("delivered"));
    }
  }

  // The merged multi-shard session history passes the offline oracle:
  // CC, CM, and CCv over per-rank concatenations of all four shards.
  EXPECT_EQ(run_kv_check(kv, 3), 0);

  // Observability: the context-wait histogram is on the scrape, labelled
  // with the replica's shard identity.
  const std::string page = slurp(kv.metrics_snapshot_path(0, 0));
  EXPECT_NE(page.find("cbc_kv_context_wait_us_bucket"), std::string::npos);
  EXPECT_NE(page.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(page.find("cbc_kv_requests"), std::string::npos);
}

TEST(KvCluster, DelayedBroadcastsForceContextWaitsNeverStaleReads) {
  // Intra-shard broadcast links get 30-80ms of injected delay while
  // client traffic (router slot, node 3) stays fast: a session that puts
  // at one replica and whose neighbour immediately reads the key at
  // ANOTHER replica arrives before the broadcast does. The §5.2 rule
  // must park that read until the frontier covers the adopted token —
  // serving it stale would surface as a value mismatch at the driver.
  std::string plan;
  for (int from = 0; from < 3; ++from) {
    for (int to = 0; to < 3; ++to) {
      if (from != to) {
        plan += "link " + std::to_string(from) + " " + std::to_string(to) +
                " delay 30000 80000\n";
      }
    }
  }
  KvHarness kv({.shards = 2, .replicas = 3, .fault_plan = plan});
  kv.start_all();
  ASSERT_EQ(kv.run_driver(/*sessions=*/2, /*rounds=*/2, /*ops=*/2), 0);
  ASSERT_TRUE(kv.wait_for_all_reports());

  const NodeReport driver = *kv.driver_report();
  EXPECT_EQ(driver.at("done"), "1");
  // Never served stale — the whole point of the wait.
  EXPECT_EQ(driver.at("value_mismatches"), "0");
  EXPECT_EQ(driver.at("failures"), "0");

  std::uint64_t waits = 0;
  std::uint64_t timeouts = 0;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    for (std::size_t rank = 0; rank < 3; ++rank) {
      const NodeReport report = *kv.report(shard, rank);
      EXPECT_EQ(report.at("violations"), "0");
      waits += std::stoull(report.at("context_waits"));
      timeouts += std::stoull(report.at("context_timeouts"));
    }
  }
  // The delay makes at least one read causally stale on arrival: it
  // parked (and either got served after delivery or was refused and
  // retried — both counted, neither served stale).
  EXPECT_GE(waits, 1u);
  // Shards still converged under the chaos.
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const NodeReport leader = *kv.report(shard, 0);
    for (std::size_t rank = 1; rank < 3; ++rank) {
      EXPECT_EQ(kv.report(shard, rank)->at("digest"), leader.at("digest"));
    }
  }
  // The oracle agrees: even with parks/retries the merged histories are
  // causally consistent.
  EXPECT_EQ(run_kv_check(kv, 3), 0);
  (void)timeouts;  // informational; may be 0 when every park drained
}

TEST(KvCluster, CbcTopAggregatesALiveFourByThreeCluster) {
  // The fleet view over a live 4x3 deployment: cbc_top discovers every
  // replica's ephemeral scrape port from its progress file, fetches
  // /metrics.json from all 12 processes mid-workload, and reports merged
  // cluster families plus per-shard context-wait percentiles.
  KvHarness kv({.shards = 4, .replicas = 3, .metrics_snapshots = true});
  kv.start_all();

  // Progress files (with metrics_port=) appear at server startup,
  // before the driver runs — every replica is guaranteed alive here.
  for (const std::string& path : kv.progress_paths()) {
    bool discovered = false;
    for (int waited = 0; waited < 30'000; waited += 20) {
      const auto progress = testkit::parse_kv_file(path);
      if (progress && progress->count("metrics_port") != 0 &&
          progress->at("metrics_port") != "none") {
        discovered = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_TRUE(discovered) << path << " never published a metrics port";
  }

  // Drive the workload from a background thread and scrape while the
  // cluster is serving it.
  int driver_status = -1;
  std::thread driver([&kv, &driver_status] {
    driver_status = kv.run_driver(/*sessions=*/3, /*rounds=*/6, /*ops=*/4);
  });
  bool saw_request = false;
  for (int waited = 0; waited < 60'000 && !saw_request; waited += 20) {
    for (const std::string& path : kv.progress_paths()) {
      const auto progress = testkit::parse_kv_file(path);
      if (progress && progress->count("requests") != 0 &&
          std::stoull(progress->at("requests")) >= 1) {
        saw_request = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(saw_request) << "no replica ever served a client request";

  const std::string top_json = kv.dir() + "/top.json";
  const int top_status = run_top(kv, top_json);
  driver.join();
  ASSERT_EQ(driver_status, 0);
  ASSERT_EQ(top_status, 0) << slurp(top_json);

  const obs::JsonValue doc = obs::json_parse(slurp(top_json));
  EXPECT_EQ(doc.find("endpoints")->as_number(), 12.0);
  EXPECT_EQ(doc.find("up")->as_number(), 12.0);
  ASSERT_EQ(doc.find("nodes")->as_array().size(), 12u);

  // Merged cluster families: the whole fleet's request counters and the
  // always-on flight rings are visible in one place.
  const obs::JsonValue* cluster = doc.find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_GT(cluster->find("kv.requests")->as_number(), 0.0);
  EXPECT_GT(cluster->find("flight.records")->as_number(), 0.0);
  EXPECT_GT(cluster->find("osend.delivered")->as_number(), 0.0);

  // Per-shard context-wait percentiles: all four shards report the
  // summary (count summed over replicas, percentile upper bounds).
  const obs::JsonValue* shards = doc.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->as_object().size(), 4u);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const obs::JsonValue* entry = shards->find(std::to_string(shard));
    ASSERT_NE(entry, nullptr);
    for (const char* key : {"count", "p50", "p90", "p99"}) {
      ASSERT_NE(entry->find(key), nullptr)
          << "shard " << shard << " missing " << key;
      EXPECT_GE(entry->find(key)->as_number(), 0.0);
    }
  }

  ASSERT_TRUE(kv.wait_for_all_reports());
  EXPECT_EQ(kv.driver_report()->at("value_mismatches"), "0");
}

TEST(KvCluster, MalformedIntegerFlagsExitOneWithinTwoSeconds) {
  const testkit::TempDir temp("/tmp/cbc_kv_flags_");
  const std::string& dir = temp.path();
  const std::string layout = dir + "/layout.txt";
  const kv::KvLayout shard =
      kv::KvLayout::localhost(1, 2, testkit::reserve_udp_ports(3));
  std::ofstream(layout) << shard.encode_text();
  const std::string err = dir + "/stderr.txt";
  // Each of these used to parse: "1x" read as rank 1, 2^32 + 1 wrapped
  // to rank 1, and -1 rounds wrapped to 2^64-1 (the driver then waited
  // 20 s for replicas that never came).
  const std::vector<std::vector<std::string>> cases = {
      {"server", "--layout", layout, "--shard", "0", "--rank", "1x"},
      {"server", "--layout", layout, "--shard", "0", "--rank", "4294967297"},
      {"drive", "--layout", layout, "--rounds", "-1"},
  };
  for (std::vector<std::string> args : cases) {
    const std::string flag = args[args.size() - 2];
    SCOPED_TRACE(flag + " " + args.back());
    args.insert(args.begin(), CBC_KV_BIN);
    const pid_t pid = testkit::spawn(args, err);
    EXPECT_EQ(testkit::wait_exit(pid, 2000), std::optional<int>(1));
    EXPECT_NE(testkit::read_file(err).find(flag), std::string::npos);
  }
}

TEST(KvCluster, TopAndCheckExitTwoWithUsageOnNonNumericValues) {
  // Both tools promise exit 2 on a usage error. These values used to
  // reach std::stoi / std::stoull, whose exception aborted the process
  // (exit 134), except "2x", which made cbc_top redraw every 2 s.
  const testkit::TempDir temp("/tmp/cbc_kv_usage_");
  const std::string err = temp.path() + "/stderr.txt";
  const std::vector<std::vector<std::string>> cases = {
      {CBC_TOP_BIN, "--timeout-ms", "abc", "--endpoint", "127.0.0.1:9"},
      {CBC_TOP_BIN, "--watch", "2x", "--endpoint", "127.0.0.1:9"},
      {CBC_CHECK_BIN, "--kv-replicas", "x", temp.path() + "/history.bin"},
  };
  for (const std::vector<std::string>& args : cases) {
    SCOPED_TRACE(args[1] + " " + args[2]);
    const pid_t pid = testkit::spawn(args, err);
    EXPECT_EQ(testkit::wait_exit(pid, 2000), std::optional<int>(2));
    const std::string text = testkit::read_file(err);
    EXPECT_NE(text.find("usage: "), std::string::npos) << text;
    EXPECT_NE(text.find(args[1]), std::string::npos) << text;
  }
}

}  // namespace
}  // namespace cbc
