// Send-side batching at the stack boundary.
//
// BatchingTransport is a decorator over any Transport: outgoing frames are
// queued per (sender, destination) link and packed several-per-wire-message,
// flushed when a link's queue reaches `max_batch` or when the flush timer
// ticks. Receivers unpack the batch and hand each inner message upward as a
// WireFrame window into the batch buffer — one allocation per batch on the
// send side, zero copies on the receive side.
//
// Batch wire layout (little-endian, via util/serde):
//
//     u32  count
//     count * ( u32 length, length bytes )   -- each an inner frame
//
// Works over SimTransport (deterministic: the flush timer is a scheduler
// event) and net::UdpTransport (the timer runs on the loop thread; the
// queue is mutex-guarded, so a test or tool thread may send beside it).
// Everything registered on one
// BatchingTransport speaks the batch framing — don't mix endpoints of the
// inner transport with endpoints of the decorator. A client with no
// stack (net::OobClient) speaks it through pack() and for_each_frame(),
// the parser unpack() runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "obs/hooks.h"
#include "obs/metrics.h"
#include "transport/transport.h"
#include "util/buffer.h"
#include "util/serde.h"
#include "util/thread_annotations.h"

namespace cbc {

/// Batching decorator. Borrows the inner transport, which must outlive it.
class BatchingTransport final : public Transport {
 public:
  struct Options {
    std::size_t max_batch = 8;        ///< flush a link at this queue depth
    SimTime flush_interval_us = 100;  ///< tick flush for partial batches
    /// Observability sinks (BatchStats collector and a batch-occupancy
    /// histogram). Default: off.
    obs::Hooks obs{};
  };

  struct BatchStats {
    std::uint64_t messages_in = 0;     ///< frames submitted via send()
    std::uint64_t batches_out = 0;     ///< wire messages sent downward
    std::uint64_t full_flushes = 0;    ///< batches flushed at max_batch
    std::uint64_t tick_flushes = 0;    ///< partial batches flushed by timer
    std::uint64_t decode_errors = 0;   ///< corrupt batch framing dropped
                                       ///< (untrusted wire input — the
                                       ///< decoded prefix is still handed up)
  };

  explicit BatchingTransport(Transport& inner)
      : BatchingTransport(inner, Options{}) {}
  BatchingTransport(Transport& inner, Options options);

  NodeId add_endpoint(Handler handler) override;
  [[nodiscard]] std::size_t endpoint_count() const override;
  using Transport::send;
  void send(NodeId from, NodeId to, SharedBuffer frame) override;
  void schedule(SimTime delay_us, std::function<void()> action) override;
  [[nodiscard]] SimTime now_us() const override;

  /// Flushes every pending partial batch immediately.
  void flush();

  [[nodiscard]] BatchStats stats() const;

  /// Packs `frames` into one batch buffer (the per-batch allocation).
  [[nodiscard]] static SharedBuffer pack(
      const std::vector<SharedBuffer>& frames);

  /// Calls `visit` with each inner frame of `batch`, in order. Returns
  /// false when the framing is truncated or corrupt (untrusted wire
  /// input): the frames before the fault have been visited. Only the
  /// framing parse is guarded — what `visit` throws propagates.
  template <typename Visit>
  static bool for_each_frame(std::span<const std::uint8_t> batch,
                             Visit&& visit);

 private:
  using LinkKey = std::pair<NodeId, NodeId>;  // (from, to)

  void unpack(NodeId from, const WireFrame& batch, const Handler& handler);
  /// Arms at most one timer while queues are non-empty.
  void maybe_arm_timer() CBC_REQUIRES(mutex_);
  void on_tick();

  Transport& inner_;
  Options options_;

  /// Records one flushed batch in the occupancy histogram (no lock held).
  void observe_flush(std::size_t occupancy);

  mutable Mutex mutex_{kRankTransport, "batching queue"};
  std::map<LinkKey, std::vector<SharedBuffer>> pending_
      CBC_GUARDED_BY(mutex_);
  bool timer_armed_ CBC_GUARDED_BY(mutex_) = false;
  BatchStats stats_ CBC_GUARDED_BY(mutex_);
  obs::LatencyHistogram* occupancy_hist_ = nullptr;
  // Last member: unregisters before the stats it reads are torn down.
  obs::CollectorHandle collector_;
};

template <typename Visit>
bool BatchingTransport::for_each_frame(std::span<const std::uint8_t> batch,
                                       Visit&& visit) {
  Reader reader(batch);
  std::uint32_t count = 0;
  try {
    count = reader.u32();
  } catch (const SerdeError&) {
    return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::span<const std::uint8_t> frame;
    try {
      frame = reader.blob_view();
    } catch (const SerdeError&) {
      return false;
    }
    visit(frame);
  }
  return true;
}

}  // namespace cbc
