// n1: real-socket cost baseline — UDP loopback through UdpTransport.
//
// Everything else in bench/ runs over the simulated network; this binary
// measures what the kernel actually charges for the same abstraction:
// one-way datagram latency through the event loop, and per-frame cost
// when BatchingTransport amortizes the syscall across 1 vs 64 frames.
// The numbers feed the committed BENCH_n1.json baseline; compare.py gates
// regressions (a lost zero-copy path or an accidental extra syscall per
// frame shows up here first).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/udp_ports.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "transport/batching.h"

namespace cbc::net {
namespace {

constexpr std::size_t kPayloadBytes = 256;

/// Event loop + UdpTransport over two loopback sockets. The caller
/// registers endpoints (on the transport or a decorator over it), then
/// calls start(); the loop runs on a worker thread while the benchmark
/// thread sends and spins on its own delivery counter. One iteration
/// never overlaps the next, so the socket buffers cannot overflow and
/// loopback delivery is lossless.
struct LoopbackRig {
  LoopbackRig()
      : udp(loop, ClusterConfig::localhost(testkit::reserve_udp_ports(2))) {}

  ~LoopbackRig() { stop(); }

  void start() {
    thread = std::thread([this] { loop.run(); });
    while (!loop.running()) {
      std::this_thread::yield();
    }
  }

  /// Stops and joins the loop thread. A decorator built over `udp` after
  /// the rig must call this before it is destroyed: the loop may still
  /// fire its timers or run its handlers.
  void stop() {
    loop.stop();
    if (thread.joinable()) {
      thread.join();
    }
  }

  void wait_for(std::uint64_t target) {
    while (received.load(std::memory_order_acquire) < target) {
      // Busy-wait: sub-10us one-way times make any sleep dominate.
    }
  }

  EventLoop loop;
  UdpTransport udp;
  std::atomic<std::uint64_t> received{0};
  std::thread thread;
};

void BM_UdpLoopbackSingleFrame(benchmark::State& state) {
  LoopbackRig rig;
  rig.udp.add_endpoint([](NodeId, const WireFrame&) {});
  rig.udp.add_endpoint(
      [&rig](NodeId, const WireFrame&) { rig.received.fetch_add(1); });
  rig.start();
  const SharedBuffer frame =
      make_buffer(std::vector<std::uint8_t>(kPayloadBytes, 0x5A));
  std::uint64_t sent = 0;
  for (auto _ : state) {
    rig.udp.send(0, 1, frame);
    sent += 1;
    rig.wait_for(sent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
  state.SetBytesProcessed(static_cast<std::int64_t>(sent * kPayloadBytes));
}
BENCHMARK(BM_UdpLoopbackSingleFrame)->UseRealTime();

/// `frames` frames per iteration through BatchingTransport(max_batch ==
/// frames): frames == 1 sends one datagram per frame, frames == 64 packs
/// all 64 into one datagram — the spread is the syscall amortization.
void BM_UdpLoopbackBatched(benchmark::State& state) {
  const auto frames = static_cast<std::uint64_t>(state.range(0));
  LoopbackRig rig;
  BatchingTransport::Options options;
  options.max_batch = frames;
  BatchingTransport batching(rig.udp, options);
  batching.add_endpoint([](NodeId, const WireFrame&) {});
  batching.add_endpoint(  // counts unpacked frames, not datagrams
      [&rig](NodeId, const WireFrame&) { rig.received.fetch_add(1); });
  rig.start();
  const SharedBuffer frame =
      make_buffer(std::vector<std::uint8_t>(kPayloadBytes, 0x5A));
  std::uint64_t sent = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < frames; ++i) {
      batching.send(0, 1, frame);
    }
    batching.flush();  // no-op when max_batch already pushed the batch out
    sent += frames;
    rig.wait_for(sent);
  }
  rig.stop();  // the loop may still fire `batching`'s flush timer
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
  state.SetBytesProcessed(static_cast<std::int64_t>(sent * kPayloadBytes));
}
BENCHMARK(BM_UdpLoopbackBatched)->Arg(1)->Arg(64)->UseRealTime();

}  // namespace
}  // namespace cbc::net
