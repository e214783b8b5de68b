// The pre-stack client of a member's out-of-band frames.
//
// Two exchanges run outside any protocol stack: a recovering cbc_node
// fetches a live peer's checkpoint before it builds its own stack
// (fault::fetch_checkpoint_blocking), and cbc_kv's driver talks to shard
// replicas from router slots outside every causal group (kv::KvClient).
// Both speak the stack's dialect on plain sockets: a request is a batch
// of one (BatchingTransport's framing) around an out-of-band frame
// (ReliableEndpoint's), which the member's endpoint hands to its
// oob_handler, and the reply comes back the same way. OobClient owns the
// bound sockets, one reused receive buffer and the one resend/receive
// loop.
//
// A request is re-sent on a wall-clock period, not when a receive times
// out: peers keep retransmitting old traffic at a restarted member's
// address, so its socket is rarely silent long enough to time out.
// Single-threaded: one caller, one exchange at a time.
#pragma once

#include <netinet/in.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/buffer.h"

namespace cbc::net {

/// Blocking request/reply client over one or more bound UDP sockets.
class OobClient {
 public:
  /// Longest a receive waits before the loop re-checks its clocks.
  static constexpr std::chrono::milliseconds kRecvSlice{20};
  /// Period at which an unanswered request is sent again.
  static constexpr std::chrono::milliseconds kResendPeriod{100};

  /// Whether an arrived out-of-band payload is the awaited reply.
  using Answer = std::function<bool(std::span<const std::uint8_t> payload)>;

  /// What one exchange() saw.
  struct Outcome {
    bool answered = false;
    std::uint64_t resends = 0;  ///< sends after the first
    /// Datagrams, frames and payloads passed over: not batch framing, not
    /// out-of-band, or not the reply (e.g. a late reply to an earlier
    /// request).
    std::uint64_t strays = 0;
  };

  /// Binds one socket per address, in order; throws InvalidArgument when
  /// one cannot be bound (another process still holds it).
  explicit OobClient(const std::vector<sockaddr_in>& selves);
  ~OobClient();

  OobClient(const OobClient&) = delete;
  OobClient& operator=(const OobClient&) = delete;

  /// Sends `request` from socket `local` to `peer` every kResendPeriod and
  /// hands each out-of-band payload that arrives there to `answer`, until
  /// it accepts one or `timeout` passes.
  Outcome exchange(std::size_t local, const sockaddr_in& peer,
                   std::span<const std::uint8_t> request,
                   std::chrono::milliseconds timeout, const Answer& answer);

  /// The datagram that carries `payload` to a member's oob_handler.
  [[nodiscard]] static SharedBuffer datagram(
      std::span<const std::uint8_t> payload);

  /// Hands the out-of-band payloads of one received datagram to `answer`
  /// until it accepts one, and returns whether it did. Everything passed
  /// over is counted into `strays`.
  static bool scan(std::span<const std::uint8_t> datagram,
                   const Answer& answer, std::uint64_t& strays);

 private:
  std::vector<int> fds_;
  std::vector<std::uint8_t> buffer_;
};

}  // namespace cbc::net
