#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/ensure.h"
#include "util/serde.h"

namespace cbc::net {

namespace {

/// Datagrams one recvmmsg call reads at most.
constexpr std::size_t kRecvBatch = 8;
/// One slab slot: room for any UDP/IPv4 payload (at most 65,507 B).
constexpr std::size_t kRecvSlotBytes = 64 * 1024;
/// SO_RCVBUF / SO_SNDBUF request for every socket.
constexpr int kSocketBufferBytes = 1 << 20;

int bind_udp_socket(const sockaddr_in& addr) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ensure(fd >= 0, "UdpTransport: socket() failed");
  // Loopback bursts (a 3-node cluster retransmitting into one host) need
  // deeper queues than the kernel default; best-effort, never fatal.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSocketBufferBytes,
               sizeof(kSocketBufferBytes));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSocketBufferBytes,
               sizeof(kSocketBufferBytes));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    throw InvalidArgument("UdpTransport: bind failed: " +
                          std::string(std::strerror(saved)));
  }
  return fd;
}

}  // namespace

UdpTransport::UdpTransport(EventLoop& loop, ClusterConfig config,
                           Options options)
    : loop_(loop),
      config_(std::move(config)),
      options_(std::move(options)),
      recv_slab_(std::make_unique_for_overwrite<std::uint8_t[]>(
          kRecvBatch * kRecvSlotBytes)) {
  if (options_.local_ids.empty()) {
    options_.local_ids = config_.to_view();
  }
  for (const NodeId id : options_.local_ids) {
    require(id < config_.size(),
            "UdpTransport: local id not in the cluster config");
  }
  // Entries must never move once published (cross-thread send() reads the
  // registered prefix without a lock).
  endpoints_.reserve(options_.local_ids.size());
  if (options_.obs.prefix.empty()) {
    options_.obs.prefix = "udp";
  }
  if (options_.obs.any()) {
    // Scrape-time migration of Stats onto the registry: the struct stays
    // the storage; the collector reads it under the stats lock.
    collector_ = options_.obs.metrics->register_collector(
        [this](obs::CollectorSink& sink) {
          const Stats s = stats();
          const std::string& prefix = options_.obs.prefix;
          sink.counter(prefix + ".datagrams_sent", s.datagrams_sent);
          sink.counter(prefix + ".datagrams_received", s.datagrams_received);
          sink.counter(prefix + ".recv_calls", s.recv_calls);
          sink.counter(prefix + ".send_errors", s.send_errors);
          sink.counter(prefix + ".oversize_drops", s.oversize_drops);
          sink.counter(prefix + ".unknown_source", s.unknown_source);
          sink.counter(prefix + ".handler_parse_errors",
                       s.handler_parse_errors);
        });
  }
}

UdpTransport::~UdpTransport() {
  for (Endpoint& endpoint : endpoints_) {
    if (endpoint.fd >= 0) {
      if (loop_.running() && loop_.in_loop_thread()) {
        loop_.remove_fd(endpoint.fd);
      }
      ::close(endpoint.fd);
      endpoint.fd = -1;
    }
  }
}

NodeId UdpTransport::add_endpoint(Handler handler) {
  require(static_cast<bool>(handler), "UdpTransport: empty handler");
  // Pre-run registration (from the not-yet-racing setup thread) or the
  // loop thread itself; a late off-loop call aborts in assert_in_loop.
  loop_.assert_in_loop();
  const std::size_t index = registered_.load(std::memory_order_relaxed);
  require(index < options_.local_ids.size(),
          "UdpTransport: all local ids already registered");
  const NodeId id = options_.local_ids[index];
  const int fd = bind_udp_socket(config_.sockaddr_of(id));
  endpoints_.push_back(Endpoint{id, fd, std::move(handler)});
  registered_.store(index + 1, std::memory_order_release);
  loop_.add_fd(fd, [this, index] {
    loop_.assert_in_loop();  // fd handlers always run on the loop thread
    on_readable(index);
  });
  return id;
}

std::size_t UdpTransport::endpoint_count() const {
  return registered_.load(std::memory_order_acquire);
}

UdpTransport::Endpoint* UdpTransport::local_endpoint(NodeId id) {
  const std::size_t count = registered_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) {
    if (endpoints_[i].id == id) {
      return &endpoints_[i];
    }
  }
  return nullptr;
}

void UdpTransport::send(NodeId from, NodeId to, SharedBuffer frame) {
  require(static_cast<bool>(frame), "UdpTransport: null frame");
  require(to < config_.size(), "UdpTransport: destination not in config");
  Endpoint* endpoint = local_endpoint(from);
  require(endpoint != nullptr,
          "UdpTransport: send() from an id this process does not host");
  if (frame->size() > options_.max_datagram_bytes) {
    const LockGuard guard(stats_mutex_);
    stats_.oversize_drops += 1;
    return;
  }
  const sockaddr_in dest = config_.sockaddr_of(to);
  const ssize_t n =
      ::sendto(endpoint->fd, frame->data(), frame->size(), 0,
               reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
  const LockGuard guard(stats_mutex_);
  if (n == static_cast<ssize_t>(frame->size())) {
    stats_.datagrams_sent += 1;
  } else {
    // UDP is lossy by contract; a full socket buffer is just loss that the
    // reliability layer will mask. Count it and move on.
    stats_.send_errors += 1;
  }
}

void UdpTransport::on_readable(std::size_t endpoint_index) {
  Endpoint& endpoint = endpoints_[endpoint_index];
  for (;;) {
    std::array<mmsghdr, kRecvBatch> messages{};
    std::array<iovec, kRecvBatch> slots{};
    std::array<sockaddr_in, kRecvBatch> sources{};
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      slots[i].iov_base = recv_slab_.get() + i * kRecvSlotBytes;
      slots[i].iov_len = kRecvSlotBytes;
      messages[i].msg_hdr.msg_name = &sources[i];
      messages[i].msg_hdr.msg_namelen = sizeof(sources[i]);
      messages[i].msg_hdr.msg_iov = &slots[i];
      messages[i].msg_hdr.msg_iovlen = 1;
    }
    const int n =
        ::recvmmsg(endpoint.fd, messages.data(), kRecvBatch, 0, nullptr);
    if (n < 0) {
      ensure(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR,
             "UdpTransport: recvmmsg failed");
      const LockGuard guard(stats_mutex_);
      stats_.recv_calls += 1;
      return;
    }
    const auto received = static_cast<std::size_t>(n);

    // Copy every datagram out before any handler runs: the next call
    // reuses the slab, and a handler may keep its frame.
    std::array<std::pair<NodeId, WireFrame>, kRecvBatch> arrivals;
    std::size_t known = 0;
    for (std::size_t i = 0; i < received; ++i) {
      const std::optional<NodeId> from = config_.node_at(
          ntohl(sources[i].sin_addr.s_addr), ntohs(sources[i].sin_port));
      if (!from.has_value()) {
        continue;
      }
      const std::uint8_t* bytes = recv_slab_.get() + i * kRecvSlotBytes;
      std::vector<std::uint8_t> copy(bytes, bytes + messages[i].msg_len);
      arrivals[known++] = {*from, WireFrame(make_buffer(std::move(copy)))};
    }
    {
      const LockGuard guard(stats_mutex_);
      stats_.recv_calls += 1;
      stats_.datagrams_received += known;
      stats_.unknown_source += received - known;
    }
    for (std::size_t i = 0; i < known; ++i) {
      try {
        endpoint.handler(arrivals[i].first, arrivals[i].second);
      } catch (const SerdeError&) {
        // Untrusted bytes off the wire; the layers above count their own
        // malformed-frame stats, this is the backstop that keeps a corrupt
        // datagram from killing the loop.
        const LockGuard guard(stats_mutex_);
        stats_.handler_parse_errors += 1;
      }
    }
    if (received < kRecvBatch) {
      return;  // the socket is empty: no trailing EAGAIN call
    }
  }
}

void UdpTransport::schedule(SimTime delay_us, std::function<void()> action) {
  loop_.schedule(delay_us, std::move(action));
}

SimTime UdpTransport::now_us() const { return loop_.now_us(); }

UdpTransport::Stats UdpTransport::stats() const {
  const LockGuard guard(stats_mutex_);
  return stats_;
}

}  // namespace cbc::net
