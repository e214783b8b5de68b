// FlightRecorder unit surface: ring wrap-around keeps the newest
// records, concurrent writers never publish a torn record (run under
// TSan in CI), dumps decode into trace events cbc_trace_merge accepts —
// message and Occurs_After flows included, and clock-offset records that
// drive --align — and the decoder survives systematic truncation and
// bit-flip damage — the same robustness bar the wire-frame parsers meet
// in frame_fuzz_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "graph/message_id.h"
#include "obs/flight_recorder.h"
#include "obs/json_lite.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "util/ensure.h"

namespace cbc::obs {
namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  return {bytes.begin(), bytes.end()};
}

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "flight_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

TEST(FlightRecorder, RingWrapAroundKeepsTheNewestRecords) {
  FlightRecorder recorder(
      {.capacity = 8, .node_id = 3, .path = {}, .dump_path = {}});
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.record(FlightEvent::kSubmit, MessageId{3, i}, i);
  }
  EXPECT_EQ(recorder.total_recorded(), 20u);
  EXPECT_EQ(recorder.capacity(), 8u);

  const FlightDump dump = decode_flight_dump(recorder.snapshot_bytes());
  EXPECT_EQ(dump.node_id, 3u);
  EXPECT_EQ(dump.total_recorded, 20u);
  EXPECT_EQ(dump.torn, 0u);
  ASSERT_EQ(dump.records.size(), 8u);
  // Only the last capacity records survive, in claim order.
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    EXPECT_EQ(dump.records[i].ticket, 12 + i);
    EXPECT_EQ(dump.records[i].id.seq, 12 + i);
    EXPECT_EQ(dump.records[i].arg, 12 + i);
    EXPECT_EQ(dump.records[i].event, FlightEvent::kSubmit);
  }
}

TEST(FlightRecorder, CapacityRoundsUpToAPowerOfTwo) {
  FlightRecorder recorder({.capacity = 100, .path = {}, .dump_path = {}});
  EXPECT_EQ(recorder.capacity(), 128u);
}

TEST(FlightRecorder, ConcurrentWritersNeverPublishATornRecord) {
  // Each writer stamps its thread index into the sender and a per-thread
  // sequence into seq/arg; any mixed-up field combination in the decode
  // is a torn record the seqlock failed to suppress.
  FlightRecorder recorder({.capacity = 1 << 10, .path = {}, .dump_path = {}});
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        recorder.record(FlightEvent::kDeliver, MessageId{t, i}, i);
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(recorder.total_recorded(), kThreads * kPerThread);

  const FlightDump dump = decode_flight_dump(recorder.snapshot_bytes());
  EXPECT_LE(dump.records.size(), recorder.capacity());
  std::set<std::uint64_t> tickets;
  for (const FlightRecord& record : dump.records) {
    EXPECT_EQ(record.event, FlightEvent::kDeliver);
    EXPECT_LT(record.id.sender, kThreads);
    // seq and arg were written together; divergence means tearing.
    EXPECT_EQ(record.id.seq, record.arg);
    EXPECT_LT(record.id.seq, kPerThread);
    EXPECT_TRUE(tickets.insert(record.ticket).second)
        << "duplicate ticket " << record.ticket;
  }
}

TEST(FlightRecorder, FileBackedRingPersistsWithoutADumpStep) {
  const std::string path = temp_path("mmap");
  {
    FlightRecorder::Options options;
    options.capacity = 64;
    options.node_id = 7;
    options.role = 1;
    options.path = path;
    FlightRecorder recorder(options);
    EXPECT_TRUE(recorder.file_backed());
    recorder.record(FlightEvent::kSubmit, MessageId{7, 1});
    recorder.record(FlightEvent::kDeliver, MessageId{7, 1}, 250);
    // No dump() — destruction unmaps; the file alone must decode.
  }
  const FlightDump dump = decode_flight_dump(read_file(path));
  EXPECT_EQ(dump.node_id, 7u);
  EXPECT_EQ(dump.role, 1u);
  ASSERT_EQ(dump.records.size(), 2u);
  EXPECT_EQ(dump.records[1].event, FlightEvent::kDeliver);
  EXPECT_EQ(dump.records[1].arg, 250u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, InMemoryDumpWritesTheConfiguredPathAtomically) {
  const std::string path = temp_path("dump");
  FlightRecorder recorder(
      {.capacity = 16, .node_id = 2, .path = {}, .dump_path = path});
  EXPECT_FALSE(recorder.file_backed());
  recorder.record(FlightEvent::kMark, MessageId{2, 9}, 42);
  ASSERT_TRUE(recorder.dump());
  const FlightDump dump = decode_flight_dump(read_file(path));
  ASSERT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.records[0].event, FlightEvent::kMark);
  EXPECT_EQ(dump.records[0].arg, 42u);
  std::remove(path.c_str());
}

TEST(FlightRecorder, GlobalInjectionPointRoutesRecords) {
  FlightRecorder recorder(
      {.capacity = 16, .node_id = 5, .path = {}, .dump_path = {}});
  install_flight_recorder(&recorder);
  flight_record(FlightEvent::kKvPark, MessageId{5, 3}, 11);
  install_flight_recorder(nullptr);
  flight_record(FlightEvent::kKvPark, MessageId{5, 4}, 12);  // dropped

  const FlightDump dump = decode_flight_dump(recorder.snapshot_bytes());
  ASSERT_EQ(dump.records.size(), 1u);
  EXPECT_EQ(dump.records[0].id.seq, 3u);
}

/// A small in-memory ring whose decoded trace rows carry pid `node_id`.
FlightRecorder::Options ring_of(std::uint32_t node_id) {
  FlightRecorder::Options options;
  options.capacity = 32;
  options.node_id = node_id;
  return options;
}

/// One ring decoded and rendered as a Chrome trace document.
std::string render_ring(const FlightRecorder& recorder,
                        const DepsById& deps = {}) {
  return render_trace_events(flight_to_trace_events(
      decode_flight_dump(recorder.snapshot_bytes()), deps));
}

TEST(FlightRecorder, DecodedDumpMergesWithLiveTraces) {
  // The postmortem path end to end: a dump becomes trace events, those
  // render as a Chrome trace document, and cbc_trace_merge's loader
  // accepts it next to a live node's --trace file (itself a decoded
  // ring).
  FlightRecorder recorder(
      {.capacity = 32, .node_id = 1, .path = {}, .dump_path = {}});
  recorder.record(FlightEvent::kSubmit, MessageId{1, 1});
  recorder.record(FlightEvent::kWireTx, MessageId{1, 1}, 2);
  recorder.record(FlightEvent::kDeliver, MessageId{1, 1}, 120);
  const std::string postmortem = render_ring(recorder);

  FlightRecorder live_ring(ring_of(2));
  live_ring.record(FlightEvent::kWireRx, MessageId{1, 1}, 1);
  const std::string live = render_ring(live_ring);

  std::vector<JsonValue> docs;
  docs.push_back(parse_chrome_trace(postmortem));
  docs.push_back(parse_chrome_trace(live));
  const std::string merged = merge_trace_docs(docs);
  const TraceSummary summary = summarize_chrome_trace(parse_chrome_trace(merged));
  // 3 flight events (one a deliver span) + metadata + live instant.
  EXPECT_GE(summary.events, 4u);
  EXPECT_EQ(summary.deliver_events.at(1), 1u);
}

TEST(FlightRecorder, DecodedRingDrawsMessageAndOccursAfterFlows) {
  // Node 0 submits a, then b after a; both deliver locally. The deps
  // index (cbc_node's recorded history) turns the deliver records into
  // one Occurs_After edge a -> b.
  FlightRecorder recorder(ring_of(0));
  const MessageId a{0, 1};
  const MessageId b{0, 2};
  recorder.record(FlightEvent::kSubmit, a);
  recorder.record(FlightEvent::kDeliver, a, 0);
  recorder.record(FlightEvent::kSubmit, b);
  recorder.record(FlightEvent::kDeliver, b, 7);

  const TraceSummary plain =
      summarize_chrome_trace(parse_chrome_trace(render_ring(recorder)));
  EXPECT_EQ(plain.deliver_events.at(0), 2u);
  EXPECT_EQ(plain.message_flows, 2u);       // submit -> own deliver, per id
  EXPECT_EQ(plain.occurs_after_flows, 0u);  // no deps given
  EXPECT_EQ(plain.unmatched_flows, 0u);

  const DepsById deps = {{a, {}}, {b, {a}}};
  const TraceSummary joined =
      summarize_chrome_trace(parse_chrome_trace(render_ring(recorder, deps)));
  EXPECT_EQ(joined.occurs_after_flows, 1u);
  EXPECT_EQ(joined.unmatched_flows, 0u);
}

TEST(FlightRecorder, ClockOffsetRecordsDriveAlignment) {
  // Node 0's reliable endpoint estimated node 1's clock 750us behind its
  // own (offset = peer clock - own clock, signed). --align must shift
  // node 1's timeline forward by 750us.
  FlightRecorder ring0(ring_of(0));
  ring0.record(FlightEvent::kClockOffset, MessageId{1, 0},
               static_cast<std::uint64_t>(std::int64_t{-750}));
  ring0.record(FlightEvent::kSubmit, MessageId{0, 1});
  FlightRecorder ring1(ring_of(1));
  ring1.record(FlightEvent::kDeliver, MessageId{0, 1}, 0);

  const std::vector<TraceEvent> events0 =
      flight_to_trace_events(decode_flight_dump(ring0.snapshot_bytes()));
  ASSERT_EQ(events0[1].name, "clock_offset");  // [0] is the process label
  EXPECT_EQ(events0[1].cat, "clock");
  EXPECT_EQ(events0[1].args_json, R"("peer":1,"offset_us":-750)");

  std::vector<JsonValue> docs;
  docs.push_back(parse_chrome_trace(render_trace_events(events0)));
  docs.push_back(parse_chrome_trace(render_ring(ring1)));
  const std::map<std::uint32_t, double> corrections = clock_corrections(docs);
  EXPECT_EQ(corrections.at(0), 0.0);
  EXPECT_EQ(corrections.at(1), 750.0);

  const auto deliver_ts = [](const std::string& merged) {
    const JsonValue doc = parse_chrome_trace(merged);
    for (const JsonValue& event : doc.find("traceEvents")->as_array()) {
      if (event.find("name")->as_string() == "deliver") {
        return event.find("ts")->as_number();
      }
    }
    return -1.0;
  };
  const double raw = deliver_ts(merge_trace_docs(docs));
  const double aligned = deliver_ts(merge_trace_docs(docs, {.align = true}));
  ASSERT_GT(raw, 0.0);
  EXPECT_EQ(aligned, raw + 750.0);
}

TEST(FlightRecorder, DecoderSurvivesEveryTruncation) {
  FlightRecorder recorder(
      {.capacity = 8, .node_id = 4, .path = {}, .dump_path = {}});
  for (std::uint64_t i = 0; i < 8; ++i) {
    recorder.record(FlightEvent::kEncode, MessageId{4, i}, i);
  }
  const std::vector<std::uint8_t> full = recorder.snapshot_bytes();
  std::size_t threw = 0;
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::span<const std::uint8_t> sliced(full.data(), cut);
    try {
      const FlightDump dump = decode_flight_dump(sliced);
      EXPECT_LE(dump.records.size(), 8u);
    } catch (const InvalidArgument&) {
      ++threw;
    }
  }
  // Anything shorter than the header must be structurally rejected.
  EXPECT_GE(threw, 64u);
}

TEST(FlightRecorder, DecoderSurvivesEverySingleByteFlip) {
  FlightRecorder recorder(
      {.capacity = 8, .node_id = 4, .path = {}, .dump_path = {}});
  for (std::uint64_t i = 0; i < 8; ++i) {
    recorder.record(FlightEvent::kEncode, MessageId{4, i}, i);
  }
  const std::vector<std::uint8_t> full = recorder.snapshot_bytes();
  for (std::size_t at = 0; at < full.size(); ++at) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> damaged = full;
      damaged[at] ^= mask;
      try {
        const FlightDump dump = decode_flight_dump(damaged);
        // Accepted: damage was confined to skippable records (or a
        // field whose corruption is indistinguishable from real data).
        EXPECT_LE(dump.records.size(), 8u);
        EXPECT_LE(dump.torn, 8u);
      } catch (const InvalidArgument&) {
        // Rejected structurally — equally acceptable; never a crash.
      }
    }
  }
}

TEST(FlightRecorder, EventNamesCoverTheEnumAndRejectStrays) {
  EXPECT_STREQ(flight_event_name(FlightEvent::kSubmit), "submit");
  EXPECT_STREQ(flight_event_name(FlightEvent::kKvDrain), "kv_drain");
  EXPECT_STREQ(flight_event_name(FlightEvent::kClockOffset), "clock_offset");
  EXPECT_STREQ(flight_event_name(FlightEvent::kDupDrop), "dup_drop");
  EXPECT_STREQ(flight_event_name(static_cast<FlightEvent>(200)), "?");
}

}  // namespace
}  // namespace cbc::obs
