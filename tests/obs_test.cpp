// Observability layer tests: MetricsRegistry primitives and exposition,
// Chrome trace-event rendering, the JSON mini-parser and trace merger,
// and — the load-bearing ones — trace-context propagation through
// batching and through reliable retransmission into the flight ring (a
// retransmitted frame must never mint a second deliver span).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "causal/osend.h"
#include "common/group_fixture.h"
#include "common/sim_env.h"
#include "obs/flight_recorder.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "transport/batching.h"
#include "util/ensure.h"

namespace cbc {
namespace {

using testkit::Group;
using testkit::SimEnv;

std::vector<std::uint8_t> bytes(std::uint8_t v) { return {v}; }

// ---------- MetricsRegistry ----------

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.count");
  counter.inc();
  counter.inc(4);
  EXPECT_EQ(counter.value(), 5u);
  // Same name resolves to the same primitive.
  EXPECT_EQ(&registry.counter("test.count"), &counter);

  obs::Gauge& gauge = registry.gauge("test.depth");
  gauge.set(7);
  gauge.add(-2);
  EXPECT_EQ(gauge.value(), 5);
  gauge.record_max(3);
  EXPECT_EQ(gauge.value(), 5);  // 3 < 5: unchanged
  gauge.record_max(11);
  EXPECT_EQ(gauge.value(), 11);

  obs::LatencyHistogram& hist =
      registry.histogram("test.lat_us", {10.0, 100.0, 1000.0});
  hist.record(5);
  hist.record(50);
  hist.record(5000);  // +inf bucket
  EXPECT_EQ(hist.count(), 3u);
  const std::vector<std::uint64_t> buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);

  const std::map<std::string, double> snap = registry.snapshot();
  EXPECT_EQ(snap.at("test.count"), 5.0);
  EXPECT_EQ(snap.at("test.depth"), 11.0);
  EXPECT_EQ(snap.at("test.lat_us.count"), 3.0);
}

TEST(Metrics, LatencyHistogramPercentileEstimate) {
  obs::LatencyHistogram hist({10.0, 100.0, 1000.0});
  EXPECT_DOUBLE_EQ(hist.percentile_estimate(50), 0.0);  // empty
  for (int i = 0; i < 100; ++i) {
    hist.record(50.0);
  }
  const double p50 = hist.percentile_estimate(50);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(obs::LatencyHistogram({5.0, 5.0}), InvalidArgument);
  EXPECT_THROW(obs::LatencyHistogram({10.0, 1.0}), InvalidArgument);
}

TEST(Metrics, CollectorsRunAtScrapeAndUnregisterViaHandle) {
  obs::MetricsRegistry registry;
  std::uint64_t source = 42;
  {
    const obs::CollectorHandle handle = registry.register_collector(
        [&source](obs::CollectorSink& sink) {
          sink.counter("ext.value", source);
          sink.gauge("ext.level", 1.5);
        });
    const auto snap = registry.snapshot();
    EXPECT_EQ(snap.at("ext.value"), 42.0);
    EXPECT_EQ(snap.at("ext.level"), 1.5);
    source = 43;
    EXPECT_EQ(registry.snapshot().at("ext.value"), 43.0);
  }
  // Handle destroyed: the collector no longer contributes.
  EXPECT_EQ(registry.snapshot().count("ext.value"), 0u);
}

TEST(Metrics, PrometheusRendering) {
  obs::MetricsRegistry registry;
  registry.counter("osend.delivered").inc(12);
  registry.gauge("osend.holdback_depth").set(3);
  registry.histogram("stack.lat_us", {10.0, 100.0}).record(42);
  const std::string page = registry.render_prometheus();
  EXPECT_NE(page.find("# TYPE cbc_osend_delivered counter"),
            std::string::npos);
  EXPECT_NE(page.find("cbc_osend_delivered 12"), std::string::npos);
  EXPECT_NE(page.find("# TYPE cbc_osend_holdback_depth gauge"),
            std::string::npos);
  EXPECT_NE(page.find("cbc_stack_lat_us_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("cbc_stack_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("cbc_stack_lat_us_count 1"), std::string::npos);
}

TEST(Metrics, PrometheusNameSanitization) {
  EXPECT_EQ(obs::prometheus_name("osend.delivered"), "cbc_osend_delivered");
  EXPECT_EQ(obs::prometheus_name("a-b c"), "cbc_a_b_c");
}

// ---------- json_lite ----------

TEST(JsonLite, ParsesScalarsArraysObjects) {
  const obs::JsonValue doc = obs::json_parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\ny", "n": -3})");
  EXPECT_DOUBLE_EQ(doc.find("a")->as_number(), 1.5);
  EXPECT_EQ(doc.find("b")->as_array().size(), 3u);
  EXPECT_TRUE(doc.find("b")->as_array()[0].as_bool());
  EXPECT_TRUE(doc.find("b")->as_array()[2].is_null());
  EXPECT_EQ(doc.find("s")->as_string(), "x\ny");
  EXPECT_DOUBLE_EQ(doc.find("n")->as_number(), -3.0);
}

TEST(JsonLite, RejectsMalformedInput) {
  EXPECT_THROW(obs::json_parse("{"), InvalidArgument);
  EXPECT_THROW(obs::json_parse("{} trailing"), InvalidArgument);
  EXPECT_THROW(obs::json_parse(R"({"a":})"), InvalidArgument);
  EXPECT_THROW(obs::json_parse(""), InvalidArgument);
  // Deep nesting is rejected by the depth cap, not by overflowing the
  // recursive parser's stack.
  EXPECT_THROW(obs::json_parse(std::string(200'000, '[')), InvalidArgument);
  EXPECT_THROW(obs::json_parse(std::string(65, '[') + std::string(65, ']')),
               InvalidArgument);
  EXPECT_NO_THROW(obs::json_parse(std::string(64, '[') + std::string(64, ']')));
}

TEST(JsonLite, DumpRoundTrips) {
  const std::string text = R"({"k":"v","list":[1,2]})";
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue again = obs::json_parse(doc.dump());
  EXPECT_EQ(again.find("k")->as_string(), "v");
  EXPECT_EQ(again.find("list")->as_array().size(), 2u);
}

// ---------- Chrome trace rendering ----------

/// An in-memory ring whose decoded trace rows carry pid `node_id`.
obs::FlightRecorder::Options ring_of(std::uint32_t node_id) {
  obs::FlightRecorder::Options options;
  options.node_id = node_id;
  return options;
}

/// A ring's records as trace events — what `cbc_node --trace` writes.
std::vector<obs::TraceEvent> decoded(const obs::FlightRecorder& ring,
                                     const obs::DepsById& deps = {}) {
  return obs::flight_to_trace_events(
      obs::decode_flight_dump(ring.snapshot_bytes()), deps);
}

TEST(Trace, EventsRenderAsLoadableChromeJson) {
  obs::FlightRecorder ring(ring_of(7));
  ring.record(obs::FlightEvent::kSubmit, MessageId{7, 1});
  ring.record(obs::FlightEvent::kDeliver, MessageId{7, 1}, 5);

  const obs::JsonValue doc =
      obs::parse_chrome_trace(obs::render_trace_events(decoded(ring)));
  const obs::TraceSummary summary = obs::summarize_chrome_trace(doc);
  EXPECT_EQ(summary.events, 5u);  // 4 + process_name metadata
  EXPECT_EQ(summary.deliver_events.at(7), 1u);
  EXPECT_EQ(summary.message_flows, 1u);
  EXPECT_EQ(summary.unmatched_flows, 0u);
}

TEST(Trace, MergeStitchesPerProcessFilesIntoOneTimeline) {
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> paths;
  for (std::uint32_t pid = 0; pid < 2; ++pid) {
    // Node 0 submits s0:1; node 1 delivers it after a 4us hold.
    obs::FlightRecorder ring(ring_of(pid));
    if (pid == 0) {
      ring.record(obs::FlightEvent::kSubmit, MessageId{0, 1});
    } else {
      ring.record(obs::FlightEvent::kDeliver, MessageId{0, 1}, 4);
    }
    const std::string path =
        dir + "/obs_merge_" + std::to_string(pid) + ".json";
    std::ofstream(path, std::ios::trunc)
        << obs::render_trace_events(decoded(ring));
    paths.push_back(path);
  }
  const std::string merged = obs::merge_trace_files(paths);
  const obs::JsonValue doc = obs::parse_chrome_trace(merged);
  const obs::TraceSummary summary = obs::summarize_chrome_trace(doc);
  // The submit-side flow start and the deliver-side flow end only pair up
  // in the merged document — the cross-process arrow.
  EXPECT_EQ(summary.message_flows, 1u);
  EXPECT_EQ(summary.unmatched_flows, 0u);
  EXPECT_EQ(summary.deliver_events.at(1), 1u);

  // Merged output is itself a valid single trace; events are sorted.
  const auto& events = doc.find("traceEvents")->as_array();
  double last_ts = -2.0;
  for (const obs::JsonValue& event : events) {
    const double ts = event.find("ts")->as_number();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
}

TEST(Trace, MergeRejectsMalformedInput) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/obs_bad_trace.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[{\"ph\":\"i\"}]}";  // missing name/ts/pid
  }
  EXPECT_THROW((void)obs::merge_trace_files({path}), InvalidArgument);
  EXPECT_THROW((void)obs::merge_trace_files({dir + "/does_not_exist.json"}),
               InvalidArgument);
}

// ---------- stack integration ----------

/// Observability for one in-process group: a shared registry, and a
/// flight ring installed for the fixture's lifetime (the ring detaches
/// itself on destruction).
struct ObsFixture {
  obs::MetricsRegistry registry;
  obs::FlightRecorder ring{obs::FlightRecorder::Options{}};

  ObsFixture() { obs::install_flight_recorder(&ring); }

  [[nodiscard]] obs::Hooks hooks(std::string prefix) {
    return {&registry, std::move(prefix)};
  }

  [[nodiscard]] std::size_t records_of(obs::FlightEvent kind) const {
    std::size_t count = 0;
    for (const obs::FlightRecord& record :
         obs::decode_flight_dump(ring.snapshot_bytes()).records) {
      count += record.event == kind ? 1 : 0;
    }
    return count;
  }
};

/// Count of `deliver` complete events per traced message id string.
std::map<std::string, int> deliver_spans_by_msg(
    const std::vector<obs::TraceEvent>& events) {
  std::map<std::string, int> by_msg;
  for (const obs::TraceEvent& event : events) {
    if (event.ph != 'X' || event.name != "deliver") {
      continue;
    }
    const std::size_t at = event.args_json.find("\"msg\":\"");
    if (at == std::string::npos) {
      ADD_FAILURE() << "deliver span without msg arg: " << event.args_json;
      continue;
    }
    const std::size_t start = at + 7;
    const std::size_t end = event.args_json.find('"', start);
    by_msg[event.args_json.substr(start, end - start)] += 1;
  }
  return by_msg;
}

TEST(ObsStack, TraceContextSurvivesBatchUnbatching) {
  // Messages ride shared batch frames; the deliver spans at every member
  // must still carry the originating MessageId and close its msg flow.
  SimEnv env;
  ObsFixture obs_fixture;
  BatchingTransport::Options batch_options;
  batch_options.max_batch = 4;
  batch_options.obs = obs_fixture.hooks("batch");
  BatchingTransport batching(env.transport, batch_options);

  OSendMember::Options member_options;
  member_options.obs = obs_fixture.hooks("osend");
  Group<OSendMember> group(batching, 2, member_options);
  std::vector<MessageId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(group[0].osend("m" + std::to_string(i),
                                 bytes(static_cast<std::uint8_t>(i)),
                                 DepSpec::none()));
  }
  env.run();
  ASSERT_EQ(group.log(1).size(), 8u);

  const auto snap = obs_fixture.registry.snapshot();
  EXPECT_EQ(snap.at("batch.messages_in"), snap.at("osend.broadcasts") * 1.0);
  EXPECT_GT(snap.at("batch.batches_out"), 0.0);
  // Batching actually batched: fewer wire messages than frames in.
  EXPECT_LT(snap.at("batch.batches_out"), snap.at("batch.messages_in"));
  EXPECT_GT(snap.at("batch.occupancy.count"), 0.0);

  const std::map<std::string, int> spans =
      deliver_spans_by_msg(decoded(obs_fixture.ring));
  for (const MessageId& id : ids) {
    // Exactly one deliver span per id per member (sender + receiver).
    EXPECT_EQ(spans.at(id.to_string()), 2) << id.to_string();
  }
}

TEST(ObsStack, RetransmittedFramesMintNoDuplicateDeliverSpans) {
  // A lossy+duplicating network forces the reliable layer to retransmit
  // and to suppress duplicates; the trace must still show exactly one
  // deliver span per (message, member), and the retransmission counters
  // must account for the recovery work.
  SimEnv::Config config;
  config.fault_plan = "seed 11\nlink * * drop 0.2 dup 0.1\n";
  config.seed = 11;
  SimEnv env(config);
  ObsFixture obs_fixture;

  OSendMember::Options member_options;
  member_options.reliability.enabled = true;
  member_options.obs = obs_fixture.hooks("osend");
  member_options.reliability.obs = obs_fixture.hooks("reliable");
  Group<OSendMember> group(env.transport, 3, member_options);

  std::vector<MessageId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(group[static_cast<std::size_t>(i) % 3].osend(
        "m" + std::to_string(i), bytes(static_cast<std::uint8_t>(i)),
        DepSpec::none()));
  }
  env.run();
  for (std::size_t member = 0; member < 3; ++member) {
    ASSERT_EQ(group.log(member).size(), 20u) << "member " << member;
  }

  EXPECT_GT(env.faults().drops, 0u);
  EXPECT_GT(env.faults().duplicates, 0u);
  const auto snap = obs_fixture.registry.snapshot();
  // The network dropped frames, so recovery must have happened...
  EXPECT_GT(snap.at("reliable.retransmissions"), 0.0);
  // ...and duplicate data frames (network dups + spurious retransmits)
  // were suppressed before the ordering layer saw them.
  EXPECT_GT(snap.at("reliable.duplicates_suppressed"), 0.0);
  EXPECT_EQ(snap.at("osend.duplicates"), 0.0);
  // The ring journals that work one record per frame.
  EXPECT_EQ(snap.at("reliable.retransmissions"),
            obs_fixture.records_of(obs::FlightEvent::kRetransmit));
  EXPECT_EQ(snap.at("reliable.duplicates_suppressed"),
            obs_fixture.records_of(obs::FlightEvent::kDupDrop));

  const std::map<std::string, int> spans =
      deliver_spans_by_msg(decoded(obs_fixture.ring));
  ASSERT_EQ(spans.size(), ids.size());
  for (const MessageId& id : ids) {
    // THE dedup claim: one deliver span per id per member, regardless of
    // how many times the frame crossed the wire.
    EXPECT_EQ(spans.at(id.to_string()), 3) << id.to_string();
  }
}

TEST(ObsStack, CausalHoldShowsUpAsOccursAfterEdges) {
  SimEnv env;
  ObsFixture obs_fixture;
  OSendMember::Options member_options;
  member_options.obs = obs_fixture.hooks("osend");
  Group<OSendMember> group(env.transport, 2, member_options);
  const MessageId first = group[0].osend("first", bytes(1), DepSpec::none());
  group[0].osend("second", bytes(2), DepSpec::after(first));
  env.run();

  // The edges join the ring's deliver records with the declared deps
  // (cbc_node takes them from its recorded history).
  obs::DepsById deps;
  for (const Delivery& delivery : group.log(0)) {
    deps.emplace(delivery.id, delivery.deps().ids());
  }
  const obs::JsonValue doc = obs::parse_chrome_trace(
      obs::render_trace_events(decoded(obs_fixture.ring, deps)));
  const obs::TraceSummary summary = obs::summarize_chrome_trace(doc);
  // Both members delivered `second` after `first` locally, each drawing
  // one Occurs_After edge.
  EXPECT_GE(summary.occurs_after_flows, 2u);
}

}  // namespace
}  // namespace cbc
