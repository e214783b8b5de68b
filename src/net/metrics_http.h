// MetricsHttpServer — Prometheus-style plaintext exposition off the
// EventLoop.
//
// A deliberately minimal HTTP/1.0 responder: it binds a TCP listen socket
// on 127.0.0.1 (port 0 picks an ephemeral port, readable via port()) and,
// for every accepted connection, reads until the end of the request
// headers, writes one `200 OK` response, and closes. No keep-alive, no
// TLS, and exactly three routes:
//
//   /healthz       -> "ok\n" (liveness probe; never touches the registry)
//   /metrics.json  -> MetricsRegistry::snapshot() as one flat JSON object
//                     (what `cbc_top` scrapes — machine-readable, no
//                     exposition-format parsing)
//   anything else  -> render_prometheus() plaintext (the scrape page)
//
// All socket work runs on the loop thread (accept and per-connection
// reads are add_fd() handlers), so the scrape serializes with protocol
// handlers and sees a consistent registry snapshot without extra locks.
// Collector callbacks registered by protocol components take their own
// component locks at render time — the documented registry→component
// lock order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace cbc::net {

/// Serves `GET /metrics` (Prometheus plaintext), `/metrics.json`, and
/// `/healthz`.
class MetricsHttpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and registers the
  /// listen socket. Must run before EventLoop::run() or on the loop
  /// thread (same contract as UdpTransport::add_endpoint). Throws
  /// InvalidArgument on bind failure.
  MetricsHttpServer(EventLoop& loop, obs::MetricsRegistry& registry,
                    std::uint16_t port);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// The bound TCP port (the kernel's pick when the requested one was 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;
    std::string request;  ///< bytes read so far, until blank line
  };

  // All four run only on the loop thread (fd handlers), so they carry the
  // loop capability statically.
  void on_accept() CBC_REQUIRES(loop_.capability());
  void on_readable(std::size_t index) CBC_REQUIRES(loop_.capability());
  void respond_and_close(std::size_t index) CBC_REQUIRES(loop_.capability());
  void close_connection(std::size_t index) CBC_REQUIRES(loop_.capability());

  EventLoop& loop_;
  obs::MetricsRegistry& registry_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Connection> connections_ CBC_GUARDED_BY(loop_.capability());
};

}  // namespace cbc::net
