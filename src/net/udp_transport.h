// cbc::Transport over real nonblocking UDP sockets.
//
// UdpTransport is the first transport whose members live in different
// address spaces: each endpoint binds the UDP socket named by a shared
// ClusterConfig, and frames travel through the kernel network stack (the
// loopback device in tests, a real NIC in deployment). Loss, duplication,
// and reordering are therefore supplied by the kernel and the wire — the
// exact regime ReliableEndpoint and the ordering disciplines are specified
// against, previously only reachable via injected faults.
//
// One process may host any prefix of the cluster's members ("local ids"):
// a cbc_node process hosts exactly one; in-process tests host several,
// whose datagrams still traverse kernel loopback rather than a function
// call. add_endpoint() binds the next local id's socket.
//
// Receive path is one copy out of a reused recvmmsg slab: one recvmmsg
// call reads up to 8 datagrams into a slab of 8 × 64 KiB slots, and each
// datagram is copied once into its own exactly-sized SharedBuffer before
// any handler runs, since handlers may keep the frame. The handler's
// WireFrame (and everything above it — batch unpack, reliability
// sub-frames, envelope parse) aliases that one allocation. A batch of
// fewer than 8 means the socket is empty, so the read ends without a
// call that fails with EAGAIN; both loop backends are level-triggered
// and come back for anything that arrives later.
//
// Threading contract (see also transport.h):
//  - receive handlers run ONLY on the EventLoop thread, serially;
//  - send()/schedule()/now_us()/stats() are safe from any thread;
//  - add_endpoint() must run before EventLoop::run() or on the loop
//    thread; a late call from another thread throws InvalidArgument
//    (fail-loudly lifecycle, never a silent race).
//
// UDP datagrams are untrusted input: anything a handler throws as a
// SerdeError is caught here, counted in Stats::handler_parse_errors, and
// dropped — a corrupt datagram must never take down the event loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "transport/transport.h"
#include "util/thread_annotations.h"

namespace cbc::net {

/// Transport over nonblocking UDP sockets driven by an EventLoop.
///
/// Fault injection belongs to fault::ChaosTransport (wrap this transport
/// in one) — the old test-only send/recv filter shims are gone.
class UdpTransport final : public Transport {
 public:
  struct Options {
    /// Which cluster members this process hosts, in add_endpoint() order.
    /// Empty means "all of them" (single-process clusters and tests).
    std::vector<NodeId> local_ids;
    std::size_t max_datagram_bytes = 60 * 1024;  ///< send-side size cap
    /// Observability sinks (Stats collector). Default: off.
    obs::Hooks obs{};
  };

  struct Stats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t recv_calls = 0;      ///< recvmmsg calls, EAGAIN included
    std::uint64_t send_errors = 0;     ///< sendto failed (incl. EWOULDBLOCK)
    std::uint64_t oversize_drops = 0;  ///< frame > max_datagram_bytes
    std::uint64_t unknown_source = 0;  ///< datagram from an address not in
                                       ///< the ClusterConfig
    std::uint64_t handler_parse_errors = 0;  ///< SerdeError from a handler
  };

  /// `loop` must outlive the transport. Sockets are bound lazily by
  /// add_endpoint(); the destructor closes them (call after the loop has
  /// stopped, or from the loop thread).
  UdpTransport(EventLoop& loop, ClusterConfig config)
      : UdpTransport(loop, std::move(config), Options{}) {}
  UdpTransport(EventLoop& loop, ClusterConfig config, Options options);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Binds the next local id's socket and registers it with the loop.
  /// Returns that cluster-wide NodeId. Pre-run or loop-thread only.
  NodeId add_endpoint(Handler handler) override;
  [[nodiscard]] std::size_t endpoint_count() const override;
  using Transport::send;
  void send(NodeId from, NodeId to, SharedBuffer frame) override;
  void schedule(SimTime delay_us, std::function<void()> action) override;
  [[nodiscard]] SimTime now_us() const override;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::size_t max_datagram_bytes() const {
    return options_.max_datagram_bytes;
  }

 private:
  struct Endpoint {
    NodeId id = kNoNode;
    int fd = -1;
    Handler handler;
  };

  /// Receive path — loop-confined: invoked only by the EventLoop when a
  /// socket turns readable, so it may touch loop-owned state freely.
  void on_readable(std::size_t endpoint_index)
      CBC_REQUIRES(loop_.capability());
  [[nodiscard]] Endpoint* local_endpoint(NodeId id);

  EventLoop& loop_;
  ClusterConfig config_;
  Options options_;
  // The receive slab, written only by on_readable() on the loop thread.
  // Left uninitialized, so the pages no datagram has reached are not
  // resident.
  const std::unique_ptr<std::uint8_t[]> recv_slab_;

  // Registration appends under the add_endpoint contract; storage is
  // reserved up front so entries never move, and registered_ publishes
  // each fully-written entry — cross-thread send() reads only the
  // published prefix.
  std::vector<Endpoint> endpoints_;
  std::atomic<std::size_t> registered_{0};

  mutable Mutex stats_mutex_{kRankTransport, "udp stats"};
  Stats stats_ CBC_GUARDED_BY(stats_mutex_);
  // Last member: unregisters before the stats it reads are torn down.
  obs::CollectorHandle collector_;
};

}  // namespace cbc::net
