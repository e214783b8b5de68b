// M1 — microbenchmarks of the hot data structures (google-benchmark).
//
// These sit on the per-message path of the delivery engines: vector clock
// updates and comparisons, dependency-graph maintenance, and wire
// serialization.
#include <benchmark/benchmark.h>

#include "causal/envelope.h"
#include "graph/message_graph.h"
#include "obs/flight_recorder.h"
#include "time/vector_clock.h"
#include "util/buffer.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/stats.h"

namespace cbc {
namespace {

void BM_VectorClockTickMerge(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  VectorClock a(width);
  VectorClock b(width);
  NodeId node = 0;
  for (auto _ : state) {
    a.tick(node);
    b.merge(a);
    node = static_cast<NodeId>((node + 1) % width);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_VectorClockTickMerge)->Arg(4)->Arg(16)->Arg(64);

void BM_VectorClockCompare(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  VectorClock a(width);
  VectorClock b(width);
  a.tick(0);
  b.tick(static_cast<NodeId>(width - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_VectorClockCompare)->Arg(4)->Arg(16)->Arg(64);

void BM_GraphInsert(benchmark::State& state) {
  Rng rng(7);
  std::uint64_t seq = 1;
  for (auto _ : state) {
    state.PauseTiming();
    MessageGraph graph;
    std::vector<MessageId> nodes;
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) {
      DepSpec deps;
      for (int d = 0; d < 2 && !nodes.empty(); ++d) {
        deps.add(nodes[rng.next_below(nodes.size())]);
      }
      const MessageId id{0, seq++};
      graph.add(id, "op", deps);
      nodes.push_back(id);
    }
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_GraphInsert);

void BM_GraphReachability(benchmark::State& state) {
  Rng rng(11);
  MessageGraph graph;
  std::vector<MessageId> nodes;
  for (std::uint64_t i = 1; i <= 512; ++i) {
    DepSpec deps;
    for (int d = 0; d < 2 && !nodes.empty(); ++d) {
      deps.add(nodes[rng.next_below(nodes.size())]);
    }
    const MessageId id{0, i};
    graph.add(id, "op", deps);
    nodes.push_back(id);
  }
  for (auto _ : state) {
    const MessageId a = nodes[rng.next_below(nodes.size())];
    const MessageId b = nodes[rng.next_below(nodes.size())];
    benchmark::DoNotOptimize(graph.reaches(a, b));
  }
}
BENCHMARK(BM_GraphReachability);

void BM_WireEncodeDecode(benchmark::State& state) {
  VectorClock clock(8);
  clock.tick(3);
  DepSpec deps = DepSpec::after_all({MessageId{0, 1}, MessageId{1, 5}});
  const std::vector<std::uint8_t> payload(128, 0xAB);
  for (auto _ : state) {
    Writer writer;
    MessageId{2, 99}.encode(writer);
    writer.str("op#2.99");
    deps.encode(writer);
    clock.encode(writer);
    writer.i64(123456);
    writer.blob(payload);
    Reader reader(writer.bytes());
    benchmark::DoNotOptimize(MessageId::decode(reader));
    benchmark::DoNotOptimize(reader.str());
    benchmark::DoNotOptimize(DepSpec::decode(reader));
    benchmark::DoNotOptimize(VectorClock::decode(reader));
    benchmark::DoNotOptimize(reader.i64());
    benchmark::DoNotOptimize(reader.blob());
  }
}
BENCHMARK(BM_WireEncodeDecode);

// ---------- Envelope message path ----------

// One encode, one in-place parse: the entire per-message codec cost of
// the zero-copy path (payload/label/deps stay views into the frame).
void BM_EnvelopeEncodeParse(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0xAB);
  const DepSpec deps = DepSpec::after_all({MessageId{0, 1}, MessageId{1, 5}});
  for (auto _ : state) {
    Writer writer;
    Envelope::encode_section(writer, MessageId{2, 99}, "op#2.99", deps,
                             123456, payload);
    const Envelope envelope = Envelope::parse(writer.take_shared(), 0);
    benchmark::DoNotOptimize(envelope.payload().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EnvelopeEncodeParse)->Arg(64)->Arg(512)->Arg(4096);

// The pre-refactor per-hop cost: every hop re-decoded the frame into
// OWNED label/payload containers (one string + one vector copy per hop).
void BM_LegacyPerHopDecodeCopy(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0xAB);
  const DepSpec deps = DepSpec::after_all({MessageId{0, 1}, MessageId{1, 5}});
  Writer writer;
  Envelope::encode_section(writer, MessageId{2, 99}, "op#2.99", deps, 123456,
                           payload);
  const std::vector<std::uint8_t> wire = writer.take();
  for (auto _ : state) {
    Reader reader(wire);
    benchmark::DoNotOptimize(MessageId::decode(reader));
    std::string label = reader.str();              // owned copy
    benchmark::DoNotOptimize(DepSpec::decode(reader));
    benchmark::DoNotOptimize(reader.i64());
    std::vector<std::uint8_t> body = reader.blob();  // owned copy
    benchmark::DoNotOptimize(label.data());
    benchmark::DoNotOptimize(body.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LegacyPerHopDecodeCopy)->Arg(64)->Arg(512)->Arg(4096);

// Fan-out to N destinations: the shared-frame path bumps a refcount per
// destination; the legacy path duplicated the wire bytes per destination.
void BM_FanoutSharedFrame(benchmark::State& state) {
  const std::size_t fanout = 16;
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0xCD);
  for (auto _ : state) {
    Writer writer;
    Envelope::encode_section(writer, MessageId{1, 7}, "op", DepSpec::none(),
                             0, payload);
    const SharedBuffer frame = writer.take_shared();
    for (std::size_t i = 0; i < fanout; ++i) {
      SharedBuffer destination = frame;  // refcount bump only
      benchmark::DoNotOptimize(destination->data());
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(fanout));
}
BENCHMARK(BM_FanoutSharedFrame)->Arg(64)->Arg(512)->Arg(4096);

void BM_FanoutCopiedFrames(benchmark::State& state) {
  const std::size_t fanout = 16;
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0xCD);
  for (auto _ : state) {
    Writer writer;
    Envelope::encode_section(writer, MessageId{1, 7}, "op", DepSpec::none(),
                             0, payload);
    const std::vector<std::uint8_t> wire = writer.take();
    for (std::size_t i = 0; i < fanout; ++i) {
      std::vector<std::uint8_t> destination = wire;  // per-destination copy
      benchmark::DoNotOptimize(destination.data());
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(fanout));
}
BENCHMARK(BM_FanoutCopiedFrames)->Arg(64)->Arg(512)->Arg(4096);

void BM_HistogramAddPercentile(benchmark::State& state) {
  Rng rng(13);
  for (auto _ : state) {
    Histogram histogram;
    for (int i = 0; i < 256; ++i) {
      histogram.add(rng.next_double());
    }
    benchmark::DoNotOptimize(histogram.percentile(99));
  }
}
BENCHMARK(BM_HistogramAddPercentile);

void BM_FlightRecord(benchmark::State& state) {
  // The always-on cost an instrumented site pays per event: one relaxed
  // ticket fetch_add plus a 40-byte seqlock-published store (the <5%
  // acceptance bar for the flight recorder rides on this number).
  obs::FlightRecorder recorder(
      {.capacity = 1 << 14, .path = {}, .dump_path = {}});
  std::uint64_t seq = 0;
  for (auto _ : state) {
    recorder.record(obs::FlightEvent::kDeliver, MessageId{1, ++seq}, seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecord);

void BM_FlightRecordNoRecorder(benchmark::State& state) {
  // The fast path with no recorder installed — a relaxed pointer load
  // and a branch.
  obs::install_flight_recorder(nullptr);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    obs::flight_record(obs::FlightEvent::kDeliver, MessageId{1, ++seq}, seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecordNoRecorder);

}  // namespace
}  // namespace cbc

BENCHMARK_MAIN();
