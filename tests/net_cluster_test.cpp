// Multi-process cluster tests: N forked cbc_node processes exchanging
// 10k+ real UDP datagrams on loopback, one member killed and restarted
// mid-run, survivors asserted to agree on the stable-point digest chain —
// the paper's "identical state with no agreement protocol" claim, checked
// end-to-end on a real kernel network path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/install.h"
#include "check/history.h"
#include "check/history_checker.h"
#include "common/child_process.h"
#include "common/cluster_harness.h"
#include "common/temp_dir.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"

namespace cbc {
namespace {

using testkit::ClusterHarness;
using testkit::NodeReport;

/// Minimal HTTP GET against a node's live metrics endpoint; returns the
/// whole response (headers + body), or "" on any failure.
std::string http_get(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(0x7F000001);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Value of one plain `name value` metric line ("" when absent).
std::string metric_value(const std::string& page, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t at = page.find(needle);
  if (at == std::string::npos) {
    return {};
  }
  const std::size_t start = at + needle.size();
  return page.substr(start, page.find('\n', start) - start);
}

void expect_clean(const NodeReport& report) {
  EXPECT_EQ(report.at("violations"), "0");
  EXPECT_EQ(report.at("malformed"), "0");
}

TEST(Cluster, ThreeNodesConvergeOnLoopback) {
  ClusterHarness cluster({.nodes = 3, .rounds = 10, .ops_per_round = 20});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();
  const NodeReport leader = *cluster.report(0);
  expect_clean(leader);
  EXPECT_EQ(leader.at("digest_count"), "10");
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    // Same number of stable points, same chained digest: the whole
    // delivered history agreed at every member.
    EXPECT_EQ(report.at("digest_count"), leader.at("digest_count"));
    EXPECT_EQ(report.at("digest"), leader.at("digest"));
    EXPECT_EQ(report.at("delivered"), leader.at("delivered"));
    EXPECT_EQ(report.at("stable_state"), leader.at("stable_state"));
  }
  // A done member's progress file has reached its last round too.
  for (std::size_t id = 0; id < 3; ++id) {
    const std::optional<NodeReport> progress =
        ClusterHarness::parse_kv_file(cluster.progress_path(id));
    ASSERT_TRUE(progress.has_value()) << "node " << id;
    EXPECT_EQ(progress->at("syncs"), "10") << "node " << id;
  }
}

TEST(Cluster, TwoGroupsSideBySide) {
  // Two INDEPENDENT causal groups hosted by one harness: each group gets
  // its own reserved port block and artifact directory, so neither can
  // collide with (or even observe) the other. Regression for the old
  // fixed-port-range assumption — a second cluster used to race the
  // first for the same addresses.
  ClusterHarness cluster(
      {.groups = 2, .nodes = 3, .rounds = 5, .ops_per_round = 10});
  cluster.start_all();
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(cluster.wait_for_report(g, id, /*require_done=*/true))
          << "group " << g << " node " << id << " never finished";
    }
  }
  cluster.terminate_all();
  for (std::size_t g = 0; g < 2; ++g) {
    const NodeReport leader = *cluster.report(g, 0);
    expect_clean(leader);
    EXPECT_EQ(leader.at("digest_count"), "5");
    for (std::size_t id = 1; id < 3; ++id) {
      const NodeReport report = *cluster.report(g, id);
      expect_clean(report);
      EXPECT_EQ(report.at("digest_count"), leader.at("digest_count"));
      EXPECT_EQ(report.at("digest"), leader.at("digest"));
      EXPECT_EQ(report.at("delivered"), leader.at("delivered"));
      EXPECT_EQ(report.at("stable_state"), leader.at("stable_state"));
    }
  }
  // Each group saw ONLY its own 3 members' traffic: a group that
  // received a stranger's datagrams would count them as malformed, and
  // delivery counts higher than 3 nodes x 5 rounds x 11 ops would mean
  // cross-group leakage.
  EXPECT_NE(cluster.config_path(0), cluster.config_path(1));
  EXPECT_NE(cluster.report_path(0, 0), cluster.report_path(1, 0));
}

TEST(Cluster, SurvivorsConvergeAfterDepartureAndRestart) {
  // 50 rounds x 3 nodes x 101 broadcasts per round per node: well over
  // 10k messages through the kernel. Node 2 departs mid-run and comes
  // back as an observer; the two survivors must still agree exactly.
  ClusterHarness cluster({.nodes = 3, .rounds = 50, .ops_per_round = 100});
  cluster.start_all();

  // Let the run get going, then take node 2 out gracefully.
  ASSERT_TRUE(cluster.wait_for_progress(2, "round", 3));
  cluster.signal_departure(2);
  ASSERT_TRUE(cluster.wait_for_report(2, /*require_done=*/false))
      << "departing node never wrote its report";
  const NodeReport departed = *cluster.report(2);
  EXPECT_EQ(departed.at("role"), "departed");
  cluster.terminate_node(2);

  // Restart the same member id as an observer: its reliability state died
  // with the old process, so it cannot rejoin the causal past, but its
  // presence (sockets up, datagrams flowing) must not disturb survivors.
  cluster.start_node(2, {"--observer"});

  for (std::size_t id = 0; id < 2; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "survivor " << id << " never finished";
  }
  cluster.terminate_all();

  const NodeReport leader = *cluster.report(0);
  const NodeReport worker = *cluster.report(1);
  expect_clean(leader);
  expect_clean(worker);
  EXPECT_EQ(leader.at("done"), "1");
  EXPECT_EQ(worker.at("done"), "1");
  EXPECT_EQ(leader.at("digest_count"), "50");
  EXPECT_EQ(worker.at("digest_count"), "50");
  EXPECT_EQ(worker.at("digest"), leader.at("digest"));
  EXPECT_EQ(worker.at("delivered"), leader.at("delivered"));
  EXPECT_EQ(worker.at("stable_state"), leader.at("stable_state"));

  // The departed member's prefix agreed too: its digest chain at cycle k
  // is a prefix of the survivors' chain, so its own run was clean.
  EXPECT_EQ(departed.at("violations"), "0");

  // Volume check: each survivor delivered 10k+ messages.
  EXPECT_GE(std::stoull(leader.at("delivered")), 10'000u);
}

TEST(Cluster, KilledMemberRecoversFromCheckpointAndRejoins) {
  // Crash-recovery acceptance: node 2 drains at its quiesce round, is
  // SIGKILLed (no graceful departure, no final report), and relaunched
  // with --recover. The fresh process fetches a survivor's stable-point
  // checkpoint over the state-transfer frames, restores replica + checker
  // + sequence numbers from it, and rejoins through leader admission.
  // Every member — including the recovered one — must finish with the
  // identical stable-point digest chain and zero checker violations.
  // The counter run chains two recoveries (in a fixed group, recovery is
  // the one way back in): the first recovered incarnation quiesces at a
  // later round and is killed in turn, so the second restores from a
  // checkpoint taken after the first rejoined, and is admitted again. The
  // registry runs too: its sync op is an update, so its checkpoint holds
  // the state the sync produced.
  struct Run {
    std::string object;
    std::uint64_t rounds;
    std::int64_t requiesce_round;  // the first recovery's; -1: recover once
  };
  constexpr std::int64_t kQuiesceRound = 2;
  for (const Run& run : {Run{"", 12, 6}, Run{"registry", 8, -1}}) {
    SCOPED_TRACE("object '" + run.object + "'");
    ClusterHarness cluster({.nodes = 3,
                            .rounds = run.rounds,
                            .ops_per_round = 10,
                            .object = run.object,
                            .checkpoints = true,
                            .suspect_timeout_ms = 4'000});
    cluster.start_node(0);
    cluster.start_node(1);
    cluster.start_node(
        2, {"--quiesce-at-round", std::to_string(kQuiesceRound)});

    // Safe-kill ordering: the victim must report quiesced=1 (its own
    // sync delivered, reliability layer drained) AND both survivors must
    // have delivered the victim's quiesce-round sync, so the transfer
    // peer's checkpoint frontier covers every message node 2 ever sent.
    // Killing earlier would make the recovered process reuse sequence
    // numbers of its own uncovered messages, which peers would then
    // dup-drop. (Round K+1 cannot close while the quiesced victim is
    // alive — its marker is missing — so K+1 delivered syncs is also the
    // most that can be awaited here.) The killed incarnation's progress
    // file goes with it, so the next incarnation's waits read only what
    // that one writes.
    const auto kill_once_quiesced = [&cluster](std::int64_t round) {
      const bool safe = cluster.wait_for_progress(2, "quiesced", 1) &&
                        cluster.wait_for_progress(0, "syncs", round + 1) &&
                        cluster.wait_for_progress(1, "syncs", round + 1);
      cluster.kill_node(2);
      ::unlink(cluster.progress_path(2).c_str());
      return safe;
    };
    ASSERT_TRUE(kill_once_quiesced(kQuiesceRound));
    if (run.requiesce_round >= 0) {
      cluster.start_node(2, {"--recover", "--quiesce-at-round",
                             std::to_string(run.requiesce_round)});
      ASSERT_TRUE(kill_once_quiesced(run.requiesce_round))
          << "first recovered incarnation never quiesced";
    }

    cluster.start_node(2, {"--recover"});
    ASSERT_TRUE(cluster.wait_for_progress(2, "admitted", 1))
        << "recovered node was never re-admitted by the leader";
    for (std::size_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
          << "node " << id << " never finished";
    }
    cluster.terminate_all();

    const NodeReport leader = *cluster.report(0);
    expect_clean(leader);
    EXPECT_EQ(leader.at("digest_count"), std::to_string(run.rounds));
    for (std::size_t id = 1; id < 3; ++id) {
      const NodeReport report = *cluster.report(id);
      expect_clean(report);
      EXPECT_EQ(report.at("digest_count"), leader.at("digest_count"));
      EXPECT_EQ(report.at("digest"), leader.at("digest"));
      EXPECT_EQ(report.at("stable_state"), leader.at("stable_state"));
    }
    EXPECT_EQ(cluster.report(2)->at("recovered"), "1");
  }
}

TEST(Cluster, CheckpointingMembersFinishWhenOneBindsLate) {
  // With checkpoints a member acks nothing before its first stable point,
  // so its peers retain every frame they send it. Node 0 binds its socket
  // only after nodes 1 and 2 have sent it their 200 round-0 ops: those
  // frames are lost with nothing sent after them, so no NACK names them,
  // and only retransmit passes that start above the floor node 0 reports
  // resend the ones past a pass's first 64.
  ClusterHarness cluster({.nodes = 3,
                          .rounds = 5,
                          .ops_per_round = 200,
                          .object = "queue",
                          .checkpoints = true});
  cluster.start_node(1);
  cluster.start_node(2);
  // Each has delivered its own round-0 ops, so it has sent them.
  ASSERT_TRUE(cluster.wait_for_progress(1, "delivered", 200));
  ASSERT_TRUE(cluster.wait_for_progress(2, "delivered", 200));
  cluster.start_node(0);
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true, 120'000))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();
  const NodeReport leader = *cluster.report(0);
  expect_clean(leader);
  EXPECT_EQ(leader.at("digest_count"), "5");
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    EXPECT_EQ(report.at("digest"), leader.at("digest"));
  }
}

TEST(Cluster, CheckpointOverOneDatagramFailsRecoveryAtOnce) {
  // A queue checkpoint carries every enqueued item (16 B each); 180
  // enqueues a round take it to ~86 KB by the quiesce round, past
  // UdpTransport's 60 KiB datagram cap. The serving member answers the
  // state request with a refusal naming the size, so --recover exits 1
  // at once with the size on stderr — not after the 30 s transfer
  // deadline, for a response the transport drops on every retry.
  constexpr std::int64_t kQuiesceRound = 29;
  ClusterHarness cluster({.nodes = 3,
                          .rounds = 40,
                          .ops_per_round = 60,
                          .object = "queue",
                          .checkpoints = true,
                          .suspect_timeout_ms = 4'000});
  cluster.start_node(0);
  cluster.start_node(1);
  cluster.start_node(2,
                     {"--quiesce-at-round", std::to_string(kQuiesceRound)});
  ASSERT_TRUE(cluster.wait_for_progress(2, "quiesced", 1));
  ASSERT_TRUE(cluster.wait_for_progress(0, "syncs", kQuiesceRound + 1));
  ASSERT_TRUE(cluster.wait_for_progress(1, "syncs", kQuiesceRound + 1));
  cluster.kill_node(2);

  const std::string err = cluster.dir() + "/recover_stderr.txt";
  const pid_t pid = testkit::spawn(
      {CBC_NODE_BIN, "--config", cluster.config_path(), "--id", "2",
       "--rounds", "40", "--ops", "60", "--object", "queue", "--checkpoint",
       cluster.checkpoint_path(2), "--recover"},
      err);
  EXPECT_EQ(testkit::wait_exit(pid, 5000), std::optional<int>(1));
  cluster.terminate_all();
  const std::string text = testkit::read_file(err);
  EXPECT_NE(text.find("cbc_node: fatal: state transfer refused"),
            std::string::npos)
      << text;
  const std::string size_marker = "checkpoint response is ";
  const std::size_t at = text.find(size_marker);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_GT(std::stoull(text.substr(at + size_marker.size())), 61'440u)
      << text;
  EXPECT_NE(text.find("over its 61440-byte datagram cap"), std::string::npos)
      << text;
}

TEST(Cluster, TotalOrderSmokeConverges) {
  // ASend deterministic-merge total order over real UDP: every member
  // submits up front; the merged sequence (and thus the digest) must be
  // identical everywhere.
  ClusterHarness cluster(
      {.nodes = 3, .rounds = 1, .ops_per_round = 30, .discipline = "total"});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();
  const NodeReport first = *cluster.report(0);
  expect_clean(first);
  EXPECT_EQ(first.at("delivered"), std::to_string(3 * 31));
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    EXPECT_EQ(report.at("digest"), first.at("digest"));
    EXPECT_EQ(report.at("delivered"), first.at("delivered"));
  }
}

TEST(Cluster, TotalOrderConvergesAcrossPartitionHeal) {
  // ASend total order under scripted adversity: a partition isolates
  // node 2 from 200ms to 1.7s while everyone's up-front submissions are
  // in flight, plus light loss on every link. Reliability must retransmit
  // across the heal and the deterministic merge must still produce one
  // identical sequence (and digest) at every member.
  ClusterHarness cluster({.nodes = 3,
                          .rounds = 1,
                          .ops_per_round = 20,
                          .discipline = "total",
                          .fault_plan = "seed 7\n"
                                        "link * * drop 0.05\n"
                                        "partition 200000 1500000 0,1|2\n"});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.terminate_all();
  const NodeReport first = *cluster.report(0);
  expect_clean(first);
  EXPECT_EQ(first.at("delivered"), std::to_string(3 * 21));
  for (std::size_t id = 1; id < 3; ++id) {
    const NodeReport report = *cluster.report(id);
    expect_clean(report);
    EXPECT_EQ(report.at("digest"), first.at("digest"));
    EXPECT_EQ(report.at("delivered"), first.at("delivered"));
  }
}

TEST(Cluster, RecordedHistoriesSatisfyCausalConsistencyForEveryObject) {
  // The offline oracle closes the loop on the live protocol: every
  // catalog object runs a real 3-process cluster with --record-history,
  // and the recorded per-site histories must pass CC, CM, and CCv when
  // replayed black-box against the object's own sequential spec.
  apps::install_objects();
  for (const std::string& name : object::Catalog::instance().names()) {
    ClusterHarness cluster({.nodes = 3,
                            .rounds = 3,
                            .ops_per_round = 5,
                            .object = name,
                            .record_history = true});
    cluster.start_all();
    for (std::size_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
          << name << ": node " << id << " never finished";
    }
    cluster.terminate_all();  // SIGTERM flushes each node's history file

    std::vector<check::SiteHistory> sites;
    for (std::size_t id = 0; id < 3; ++id) {
      sites.push_back(check::SiteHistory::load(cluster.history_path(id)));
      EXPECT_EQ(sites.back().object, name);
      EXPECT_FALSE(sites.back().ops.empty());
    }
    const auto entry = object::Catalog::instance().find(name);
    ASSERT_TRUE(entry.has_value());
    const object::SequentialSpec spec = entry->spec();
    const check::HistoryChecker checker(
        spec, object::derive_commutativity(spec));
    const check::HistoryChecker::Result result = checker.check(sites);
    EXPECT_TRUE(result.cc) << name << ": " << result.summary();
    EXPECT_TRUE(result.cm) << name << ": " << result.summary();
    EXPECT_TRUE(result.ccv) << name << ": " << result.summary();
    for (const std::string& violation : result.violations) {
      ADD_FAILURE() << name << ": " << violation;
    }
  }
}

TEST(Cluster, ObservabilityScrapeAndMergedTrace) {
  // Acceptance run for the observability layer: three traced processes,
  // live Prometheus scrape off a running node's event loop, and one
  // merged Chrome trace with deliver spans on every process row and
  // cross-message Occurs_After flow arrows.
  ClusterHarness cluster({.nodes = 3,
                          .rounds = 5,
                          .ops_per_round = 10,
                          .observability = true});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }

  // Live scrape while the nodes are still serving (core counters must be
  // nonzero after a completed workload).
  const std::optional<int> port = cluster.metrics_port(1);
  ASSERT_TRUE(port.has_value()) << "report carries no metrics_port";
  const std::string page = http_get(*port);
  ASSERT_NE(page.find("200 OK"), std::string::npos) << page;
  ASSERT_NE(page.find("# TYPE"), std::string::npos);
  for (const std::string metric :
       {"cbc_osend_delivered", "cbc_udp_datagrams_sent",
        "cbc_batch_messages_in", "cbc_check_deliveries"}) {
    const std::string value = metric_value(page, metric);
    ASSERT_FALSE(value.empty()) << metric << " missing from scrape";
    EXPECT_GT(std::stod(value), 0.0) << metric;
  }
  // The histogram rides the same page.
  EXPECT_NE(page.find("cbc_osend_hold_us_count"), std::string::npos);

  // The snapshot timer wrote the same page to disk.
  EXPECT_TRUE(
      ClusterHarness::parse_kv_file(cluster.report_path(1)).has_value());
  std::ifstream snapshot(cluster.metrics_snapshot_path(1));
  EXPECT_TRUE(static_cast<bool>(snapshot));

  // SIGTERM flushes each node's trace; merge and assert the causal
  // structure survived the multi-process round trip.
  cluster.terminate_all();
  const std::string merged = obs::merge_trace_files(
      {cluster.trace_path(0), cluster.trace_path(1), cluster.trace_path(2)});
  const obs::JsonValue doc = obs::parse_chrome_trace(merged);
  const obs::TraceSummary summary = obs::summarize_chrome_trace(doc);
  EXPECT_GT(summary.events, 0u);
  for (std::uint32_t pid = 0; pid < 3; ++pid) {
    const auto row = summary.deliver_events.find(pid);
    ASSERT_NE(row, summary.deliver_events.end())
        << "no deliver spans on process row " << pid;
    EXPECT_GT(row->second, 0u);
  }
  EXPECT_GT(summary.occurs_after_flows, 0u)
      << "merged trace carries no Occurs_After flow edges";
}

TEST(Cluster, FlightDumpOfKilledNodeMergesIntoSurvivorTimeline) {
  // The postmortem claim end to end: a member dies by SIGKILL — no
  // signal handler, no trace flush, no report — and its file-backed
  // flight ring still decodes into the same timeline as the survivors'
  // live traces.
  ClusterHarness cluster({.nodes = 3,
                          .rounds = 5,
                          .ops_per_round = 10,
                          .observability = true});
  cluster.start_all();
  for (std::size_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster.wait_for_report(id, /*require_done=*/true))
        << "node " << id << " never finished";
  }
  cluster.kill_node(2);
  cluster.terminate_node(0);
  cluster.terminate_node(1);

  // The killed node's mapping survives the SIGKILL verbatim.
  std::ifstream in(cluster.flight_path(2), std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(in)) << "no flight file for killed node";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string raw = buffer.str();
  const std::vector<std::uint8_t> bytes(raw.begin(), raw.end());
  const obs::FlightDump dump = obs::decode_flight_dump(bytes);
  EXPECT_EQ(dump.node_id, 2u);
  EXPECT_EQ(dump.role, 0u);
  ASSERT_FALSE(dump.records.empty());
  bool saw_submit = false;
  bool saw_deliver = false;
  for (const obs::FlightRecord& record : dump.records) {
    saw_submit = saw_submit || record.event == obs::FlightEvent::kSubmit;
    saw_deliver = saw_deliver || record.event == obs::FlightEvent::kDeliver;
  }
  EXPECT_TRUE(saw_deliver) << "killed node's ring has no deliver records";

  // Postmortem + survivors merge into one timeline with all three
  // process rows populated.
  const std::string postmortem =
      obs::render_trace_events(obs::flight_to_trace_events(dump));
  std::vector<obs::JsonValue> docs;
  docs.push_back(obs::parse_chrome_trace(postmortem));
  for (std::size_t id = 0; id < 2; ++id) {
    std::ifstream trace(cluster.trace_path(id));
    std::ostringstream text;
    text << trace.rdbuf();
    docs.push_back(obs::parse_chrome_trace(text.str()));
  }
  const std::string merged = obs::merge_trace_docs(docs);
  const obs::TraceSummary summary =
      obs::summarize_chrome_trace(obs::parse_chrome_trace(merged));
  for (std::uint32_t pid = 0; pid < 3; ++pid) {
    const auto row = summary.deliver_events.find(pid);
    ASSERT_NE(row, summary.deliver_events.end())
        << "no deliver spans on process row " << pid;
    EXPECT_GT(row->second, 0u);
  }

  // The same documents feed the cross-node latency decomposition.
  const obs::LatencyReport report = obs::latency_report(docs);
  EXPECT_GT(report.deliver.count, 0u);
  EXPECT_GT(report.hold.count, 0u);
  EXPECT_GE(report.deliver.p99, report.deliver.p50);
}

/// An n-member cluster config on reserved loopback ports, written into
/// `dir`.
std::string cluster_config(const std::string& dir, std::size_t n) {
  const std::string path = dir + "/cluster.txt";
  std::ofstream config(path);
  const std::vector<std::uint16_t> ports = testkit::reserve_udp_ports(n);
  for (std::size_t i = 0; i < n; ++i) {
    config << i << " 127.0.0.1:" << ports[i] << "\n";
  }
  return path;
}

/// A one-member cluster config (see cluster_config).
std::string single_member_config(const std::string& dir) {
  return cluster_config(dir, 1);
}

TEST(Cluster, MalformedIntegerFlagsExitOneWithinTwoSeconds) {
  const testkit::TempDir temp("/tmp/cbc_node_flags_");
  const std::string& dir = temp.path();
  const std::string config = single_member_config(dir);
  const std::string err = dir + "/stderr.txt";
  // Each of these used to parse: -1 wrapped to 2^64-1 ops per round (the
  // first round never returned, so SIGTERM was never acted on), "3x" read
  // as 3, and 2^63 rounds read as -1 by the int64 round counter.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--ops", "-1"},
      {"--rounds", "3x"},
      {"--rounds", "9223372036854775808"},
  };
  for (const auto& [flag, token] : cases) {
    SCOPED_TRACE(flag + " " + token);
    const pid_t pid = testkit::spawn(
        {CBC_NODE_BIN, "--config", config, "--id", "0", flag, token}, err);
    EXPECT_EQ(testkit::wait_exit(pid, 2000), std::optional<int>(1));
    EXPECT_NE(testkit::read_file(err).find(flag), std::string::npos);
  }
}

TEST(Cluster, UnwritableReportPathIsNamedOnStderr) {
  const testkit::TempDir temp("/tmp/cbc_node_flags_");
  const std::string& dir = temp.path();
  const std::string config = single_member_config(dir);
  const std::string err = dir + "/stderr.txt";
  const std::string report = dir + "/missing/report.txt";
  const std::string progress = dir + "/missing/progress.txt";
  const pid_t pid = testkit::spawn(
      {CBC_NODE_BIN, "--config", config, "--id", "0", "--rounds", "2", "--ops",
       "2", "--report", report, "--progress", progress}, err);
  // The lone member finishes its rounds at once and writes its report.
  for (int waited = 0; waited < 5000; waited += 20) {
    if (testkit::read_file(err).find(report) != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid, SIGTERM);
  EXPECT_EQ(testkit::wait_exit(pid, 5000), std::optional<int>(0));
  const std::string text = testkit::read_file(err);
  // One line per failing path, not one per rewrite of the progress file.
  EXPECT_EQ(testkit::count_of(text, report), 1u) << text;
  EXPECT_EQ(testkit::count_of(text, progress), 1u) << text;
}

TEST(Cluster, TotalDisciplineRejectsAnExplicitRoundsFlag) {
  // Total order runs one shot of --ops per member, so an accepted
  // --rounds 5 would be ignored behind a report of done=1 and
  // rounds_started=0.
  const testkit::TempDir temp("/tmp/cbc_node_flags_");
  const std::string& dir = temp.path();
  const std::string config = single_member_config(dir);
  const std::string err = dir + "/stderr.txt";
  const pid_t pid = testkit::spawn(
      {CBC_NODE_BIN, "--config", config, "--id", "0", "--discipline", "total",
       "--rounds", "5", "--ops", "10"}, err);
  EXPECT_EQ(testkit::wait_exit(pid, 2000), std::optional<int>(1));
  const std::string text = testkit::read_file(err);
  EXPECT_NE(text.find("fatal:"), std::string::npos) << text;
  EXPECT_NE(text.find("--rounds"), std::string::npos) << text;
}

TEST(Cluster, UnwritableCheckpointPathExitsOne) {
  // Node 1's first checkpoint write throws inside an event-loop callback;
  // the exception must reach run_main's fatal line, not abort the process
  // while the loop is still marked running.
  const testkit::TempDir temp("/tmp/cbc_node_flags_");
  const std::string& dir = temp.path();
  const std::string config = cluster_config(dir, 3);
  std::vector<pid_t> pids;
  for (std::size_t id = 0; id < 3; ++id) {
    std::vector<std::string> args = {CBC_NODE_BIN, "--config", config,
                                     "--id", std::to_string(id),
                                     "--rounds", "5", "--ops", "5"};
    if (id == 1) {
      args.insert(args.end(), {"--checkpoint", "/nonexistent/dir/ck.bin"});
    }
    pids.push_back(testkit::spawn(
        args, dir + "/stderr" + std::to_string(id) + ".txt"));
  }
  EXPECT_EQ(testkit::wait_exit(pids[1], 10000), std::optional<int>(1));
  for (const std::size_t id : {0, 2}) {
    ::kill(pids[id], SIGKILL);
    (void)testkit::wait_exit(pids[id], 5000);
  }
  const std::string text = testkit::read_file(dir + "/stderr1.txt");
  EXPECT_NE(text.find("cbc_node: fatal: "), std::string::npos) << text;
  EXPECT_NE(text.find("/nonexistent/dir/ck.bin"), std::string::npos) << text;
  EXPECT_EQ(text.find("destroyed while running"), std::string::npos) << text;
}

}  // namespace
}  // namespace cbc
