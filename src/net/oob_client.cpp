#include "net/oob_client.h"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <optional>
#include <string>

#include "transport/batching.h"
#include "transport/reliable.h"
#include "util/ensure.h"

namespace cbc::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Every UDP payload fits: one buffer serves every receive.
constexpr std::size_t kRecvBufferBytes = 64 * 1024;

std::string address_text(const sockaddr_in& address) {
  char ip[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &address.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(address.sin_port));
}

}  // namespace

OobClient::OobClient(const std::vector<sockaddr_in>& selves)
    : buffer_(kRecvBufferBytes) {
  timeval slice{};
  slice.tv_usec = static_cast<suseconds_t>(kRecvSlice.count() * 1000);
  for (const sockaddr_in& self : selves) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd >= 0) {
      const int one = 1;
      (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &slice, sizeof(slice));
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&self),
                 sizeof(self)) == 0) {
        fds_.push_back(fd);
        continue;
      }
      ::close(fd);
    }
    for (const int bound : fds_) {
      ::close(bound);
    }
    throw InvalidArgument("cannot bind " + address_text(self) +
                          " (is another process still using it?)");
  }
}

OobClient::~OobClient() {
  for (const int fd : fds_) {
    ::close(fd);
  }
}

OobClient::Outcome OobClient::exchange(std::size_t local,
                                       const sockaddr_in& peer,
                                       std::span<const std::uint8_t> request,
                                       std::chrono::milliseconds timeout,
                                       const Answer& answer) {
  require(local < fds_.size(), "OobClient::exchange: no such socket");
  const int fd = fds_[local];
  const SharedBuffer wire = datagram(request);
  const auto deadline = Clock::now() + timeout;
  auto next_send = Clock::now();
  bool sent = false;
  Outcome outcome;
  while (Clock::now() < deadline) {
    if (Clock::now() >= next_send) {
      (void)::sendto(fd, wire->data(), wire->size(), 0,
                     reinterpret_cast<const sockaddr*>(&peer), sizeof(peer));
      outcome.resends += sent ? 1 : 0;
      sent = true;
      next_send = Clock::now() + kResendPeriod;
    }
    const ssize_t n = ::recv(fd, buffer_.data(), buffer_.size(), 0);
    if (n < 0) {
      continue;  // the receive slice elapsed: re-check the clocks
    }
    const auto size = static_cast<std::size_t>(n);
    if (scan({buffer_.data(), size}, answer, outcome.strays)) {
      outcome.answered = true;
      break;
    }
  }
  return outcome;
}

SharedBuffer OobClient::datagram(std::span<const std::uint8_t> payload) {
  return BatchingTransport::pack(
      {make_buffer(ReliableEndpoint::oob_frame(payload))});
}

bool OobClient::scan(std::span<const std::uint8_t> datagram,
                     const Answer& answer, std::uint64_t& strays) {
  bool answered = false;
  const bool intact = BatchingTransport::for_each_frame(
      datagram, [&](std::span<const std::uint8_t> frame) {
        if (answered) {
          return;
        }
        const std::optional<std::span<const std::uint8_t>> payload =
            ReliableEndpoint::oob_payload(frame);
        if (payload.has_value() && answer(*payload)) {
          answered = true;
        } else {
          strays += 1;
        }
      });
  if (!intact) {
    strays += 1;
  }
  return answered;
}

}  // namespace cbc::net
