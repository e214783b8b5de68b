// Transport abstraction under the ordering layers.
//
// A Transport moves immutable, refcounted frames between endpoints and
// provides timers. Two implementations carry frames:
//   - SimTransport: deterministic, on the discrete-event SimNetwork;
//     used by tests, examples and every bench.
//   - net::UdpTransport: real nonblocking UDP sockets on a single-threaded
//     event loop (net/udp_transport.h) — members in different processes,
//     or several in one process over loopback.
// Decorators wrap either: BatchingTransport packs several frames per
// wire message (transport/batching.h), and fault::ChaosTransport injects
// a seeded FaultPlan's loss, delay and reordering.
//
// Frames are SharedBuffers: a broadcast to N destinations shares ONE
// buffer across all sends, and receive handlers get a WireFrame window
// into the same bytes — the transport never copies a payload.
//
// The transport makes NO ordering or reliability promises beyond what its
// construction parameters say: messages may be reordered, dropped, or
// duplicated. ReliableEndpoint (reliable.h) masks loss/duplication;
// ordering is the job of src/causal and src/total.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/buffer.h"
#include "util/types.h"

namespace cbc {

/// Byte-transport interface.
///
/// Threading contract (common to all implementations):
///  - Receive handlers for ONE endpoint are invoked serially, never
///    concurrently with themselves; protocol state reachable only from a
///    single endpoint's handler needs no locking against the transport.
///  - send(), schedule(), and now_us() are safe to call from any thread
///    once the endpoint they involve exists — including from inside a
///    receive handler or a scheduled action.
///  - schedule()d actions run on the same execution context that delivers
///    messages (the simulator step or the event loop).
///
/// Endpoint lifecycle: registration is a start-up activity. Every
/// implementation accepts add_endpoint() before its execution context
/// starts delivering; registering later is implementation-defined and
/// must either work or fail loudly:
///  - SimTransport: any time (single-threaded by construction).
///  - net::UdpTransport: before EventLoop::run(), or on the loop thread
///    itself; a late call from any other thread throws InvalidArgument
///    (never a silent race — see net/udp_transport.h).
///  - BatchingTransport: inherits the inner transport's rule.
class Transport {
 public:
  /// Receive handler: (sender id, frame window). The frame's buffer is
  /// refcounted — handlers may retain it (zero-copy hold-back) beyond the
  /// call.
  using Handler = std::function<void(NodeId from, const WireFrame& frame)>;

  virtual ~Transport() = default;

  /// Registers an endpoint; returns its dense id.
  virtual NodeId add_endpoint(Handler handler) = 0;

  /// Number of registered endpoints.
  [[nodiscard]] virtual std::size_t endpoint_count() const = 0;

  /// Sends a shared frame from `from` to `to` (self-sends allowed). The
  /// same SharedBuffer may be passed to any number of destinations.
  virtual void send(NodeId from, NodeId to, SharedBuffer frame) = 0;

  /// Convenience: wraps loose bytes into a frame (moves, no copy).
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> payload) {
    send(from, to, make_buffer(std::move(payload)));
  }

  /// Schedules `action` to run after `delay_us` microseconds, on the same
  /// execution context that delivers messages for this transport.
  virtual void schedule(SimTime delay_us, std::function<void()> action) = 0;

  /// Current transport time in microseconds (virtual for SimTransport,
  /// the event loop's monotonic clock for net::UdpTransport).
  [[nodiscard]] virtual SimTime now_us() const = 0;
};

}  // namespace cbc
