// NodeRuntime's process-shell helpers and its production option set: the
// whole-token integer flag parser both binaries use, the atomic key=value
// writer's failure reporting, and the layer options every cbc_node and
// cbc_kv member runs with — the same values perfbench's parity guard
// asserts for its own copy of the stack.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/install.h"
#include "common/child_process.h"
#include "common/udp_ports.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "obs/metrics.h"
#include "runtime/node_runtime.h"
#include "util/ensure.h"

namespace cbc::runtime {
namespace {

/// argv for the space-separated `line`, backed by `storage`.
std::vector<char*> make_argv(const std::string& line,
                             std::vector<std::string>& storage) {
  std::istringstream words(line);
  for (std::string word; words >> word;) {
    storage.push_back(word);
  }
  std::vector<char*> argv;
  for (std::string& arg : storage) {
    argv.push_back(arg.data());
  }
  return argv;
}

std::string rejection(std::string_view token, std::uint64_t min,
                      std::uint64_t max) {
  try {
    (void)parse_uint("--rounds", token, min, max);
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return {};
}

TEST(Runtime, ParseUintAcceptsWholeDecimalTokensInRange) {
  EXPECT_EQ(parse_uint("--ops", "0", 0, 10), 0u);
  EXPECT_EQ(parse_uint("--ops", "10", 0, 10), 10u);
  EXPECT_EQ(parse_uint("--ops", "007", 0, 10), 7u);
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_uint("--rounds", "18446744073709551615", 0, top), top);
  const auto int64_max =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_uint("--rounds", "9223372036854775807", 0, int64_max),
            int64_max);
}

TEST(Runtime, ParseUintRejectsSignsGarbageAndOverflowNamingTheFlag) {
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  const auto int64_max =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  for (const char* token :
       {"-1", "+1", "1x", "x1", " 1", "1 ", "", "0x10", "1.5", "1e3"}) {
    const std::string error = rejection(token, 0, top);
    EXPECT_NE(error.find("--rounds"), std::string::npos) << token;
    EXPECT_NE(error.find("'" + std::string(token) + "'"), std::string::npos)
        << token;
  }
  // One past the consumer's range, and past uint64 itself.
  EXPECT_FALSE(rejection("9223372036854775808", 0, int64_max).empty());
  EXPECT_FALSE(rejection("18446744073709551616", 0, top).empty());
  EXPECT_FALSE(rejection("99999999999999999999999", 0, top).empty());
  EXPECT_FALSE(rejection("65536", 0, 65535).empty());
  // Existing lower bounds stay (e.g. --suspect-timeout-ms >= 1).
  EXPECT_FALSE(rejection("0", 1, kMaxMillis).empty());
  EXPECT_TRUE(rejection("1", 1, kMaxMillis).empty());
}

TEST(Runtime, ArgReaderNumberCastsToTheConsumerType) {
  std::vector<std::string> storage;
  std::vector<char*> argv = make_argv("bin --id 7 --port 80x", storage);
  ArgReader in(static_cast<int>(argv.size()), argv.data(), 1);
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.flag(), "--id");
  EXPECT_EQ(in.number<NodeId>(0, kNoNode - 1), NodeId{7});
  ASSERT_TRUE(in.next());
  EXPECT_THROW((void)in.number<int>(0, 65535), InvalidArgument);
  EXPECT_FALSE(in.next());
}

TEST(Runtime, SharedFlagsTakeTheEightCommonFlags) {
  std::vector<std::string> storage;
  std::vector<char*> argv = make_argv(
      "bin --report r --progress p --record-history h --fault-plan f "
      "--flight fl --force-poll --metrics-port 0 --metrics-snapshot m "
      "--rounds 3", storage);
  ArgReader in(static_cast<int>(argv.size()), argv.data(), 1);
  SharedFlags flags;
  std::vector<std::string> others;
  while (in.next()) {
    if (!flags.parse(in)) {
      others.push_back(in.flag());
      (void)in.value();
    }
  }
  EXPECT_EQ(flags.report_path, "r");
  EXPECT_EQ(flags.progress_path, "p");
  EXPECT_EQ(flags.record_history_path, "h");
  EXPECT_EQ(flags.fault_plan_path, "f");
  EXPECT_EQ(flags.flight_path, "fl");
  EXPECT_TRUE(flags.force_poll);
  EXPECT_EQ(flags.metrics_port, 0);
  EXPECT_EQ(flags.metrics_snapshot_path, "m");
  EXPECT_TRUE(flags.metrics());
  EXPECT_EQ(others, std::vector<std::string>{"--rounds"});
  EXPECT_FALSE(SharedFlags{}.metrics());
}

TEST(Runtime, WriteKvFileNamesAFailingPathOnceAndLeavesNoTmp) {
  std::string dir = "/tmp/cbc_runtime_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string missing = dir + "/missing/report.txt";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(write_kv_file(missing, {{"done", "1"}}));
  EXPECT_FALSE(write_kv_file(missing, {{"done", "1"}}));
  // A path that is a directory: the tmp is written, the rename fails.
  const std::string occupied = dir + "/occupied";
  ASSERT_EQ(::mkdir(occupied.c_str(), 0755), 0);
  EXPECT_FALSE(write_kv_file(occupied, {{"done", "1"}}));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(testkit::count_of(err, missing), 1u) << err;
  EXPECT_NE(err.find("No such file or directory"), std::string::npos);
  EXPECT_EQ(testkit::count_of(err, occupied), 1u) << err;
  const std::string tmp = occupied + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << "tmp left behind";

  const std::string good = dir + "/report.txt";
  EXPECT_TRUE(write_kv_file(good, {{"done", "1"}, {"digest", hex64(255)}}));
  EXPECT_EQ(testkit::read_file(good), "done=1\ndigest=00000000000000ff\n");
  EXPECT_TRUE(write_kv_file("", {{"ignored", "1"}}));
  ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

/// Asserts the production option set: what perfbench's check_parity
/// asserts for its own copy of the stack.
void expect_production_options(const StackOptions& options, bool total_order) {
  const ReliableEndpoint::Options& reliable = options.osend.reliability;
  EXPECT_TRUE(reliable.enabled);
  EXPECT_TRUE(static_cast<bool>(reliable.oob_handler));
  EXPECT_TRUE(options.asend.reliability.enabled);
  EXPECT_TRUE(options.check.stable_spec.has_value());
  EXPECT_EQ(options.check.digest_exempt_kinds, std::set<std::string>{"nop"});
  EXPECT_EQ(options.check.expect_total_order, total_order);
  EXPECT_TRUE(options.front_end.fifo_chain);
  EXPECT_EQ(options.batching.max_batch, BatchingTransport::Options{}.max_batch);
  EXPECT_EQ(options.batching.flush_interval_us,
            BatchingTransport::Options{}.flush_interval_us);
}

[[nodiscard]] std::vector<obs::Hooks> all_hooks(const StackOptions& options) {
  return {
      options.udp.obs,
      options.batching.obs,
      options.osend.obs,
      options.osend.reliability.obs,
      options.asend.obs,
      options.asend.reliability.obs,
      options.stack.obs,
      options.check.obs,
  };
}

TEST(Runtime, StackOptionsAreTheProductionSet) {
  apps::install_objects();
  const auto entry = object::Catalog::instance().find("counter");
  ASSERT_TRUE(entry.has_value());
  const CommutativitySpec derived = object::derive_commutativity(entry->spec());
  Config config;
  config.self = 2;
  config.oob_handler = [](NodeId, std::span<const std::uint8_t>) {};

  const StackOptions causal = stack_options(config, derived, nullptr);
  expect_production_options(causal, /*total_order=*/false);
  EXPECT_EQ(causal.udp.local_ids, std::vector<NodeId>{2});
  EXPECT_EQ(causal.osend.reliability.suspect_after_us, 0);
  for (const obs::Hooks& hooks : all_hooks(causal)) {
    EXPECT_FALSE(hooks.any());  // no metrics sink configured
  }

  config.total_order = true;
  obs::MetricsRegistry registry;
  const StackOptions total = stack_options(config, derived, &registry);
  expect_production_options(total, /*total_order=*/true);
  for (const obs::Hooks& hooks : all_hooks(total)) {
    EXPECT_EQ(hooks.metrics, &registry);
    EXPECT_FALSE(hooks.prefix.empty());
  }
}

TEST(Runtime, ProcessRssReadsProcStatus) {
  const std::uint64_t current = rss_kb();
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak_rss_kb(), current);
}

TEST(Runtime, RetainedStateGaugesAndReportStayBoundedByTheOpenCycle) {
  apps::install_objects();
  std::string dir = "/tmp/cbc_runtime_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string cluster = dir + "/cluster.txt";
  std::ofstream(cluster) << "0 127.0.0.1:" << testkit::reserve_udp_ports(1)[0]
                         << "\n";
  SharedFlags flags;
  flags.report_path = dir + "/report.txt";
  flags.metrics_snapshot_path = dir + "/metrics.prom";  // metrics on
  Config config;
  config.cluster = net::ClusterConfig::load(cluster);
  config.members = config.cluster.to_view();
  config.self = 0;
  config.object = "counter";
  config.flight_fallback = dir + "/flight.bin";
  config.name = "runtime test";
  {
    NodeRuntime runtime(flags, config);
    const object::CatalogEntry& entry = runtime.entry();
    // A lone member delivers its own broadcasts inside submit().
    const int cycles = 50;
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (std::uint64_t op = 0; op < 4; ++op) {
        runtime.replica().submit(
            entry.workload_op(0, static_cast<std::uint64_t>(cycle), op));
      }
      runtime.replica().submit(entry.sync_op);
    }
    for (std::uint64_t op = 0; op < 3; ++op) {  // the open cycle
      runtime.replica().submit(entry.workload_op(0, cycles, op));
    }
    ASSERT_EQ(runtime.delivered(), 50u * 5 + 3);
    const auto snap = runtime.metrics()->snapshot();
    EXPECT_GT(snap.at("process.rss_bytes"), 0.0);
    EXPECT_EQ(snap.at("check.retained"), 3.0);
    EXPECT_EQ(snap.at("replica.stable_states"), 1.0);
    runtime.write_report({});
  }
  const std::string report = testkit::read_file(flags.report_path);
  EXPECT_NE(report.find("\ndigest_count=50\n"), std::string::npos) << report;
  const std::size_t at = report.find("\npeak_rss_kb=");
  ASSERT_NE(at, std::string::npos) << report;
  EXPECT_GT(std::stoull(report.substr(at + 13)), 0u) << report;
  ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

}  // namespace
}  // namespace cbc::runtime
