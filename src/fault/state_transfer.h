// State transfer for crash recovery — the oob payloads and the pre-stack
// fetch.
//
// A recovering member must not bring its protocol stack up on stale
// state: any message delivered against a pre-recovery baseline would
// corrupt the checker's digest chain. So the transfer happens BEFORE the
// stack exists: a net::OobClient binds the member's own configured
// address (peers therefore identify the datagrams as coming from that
// member) and sends a StateRequest to a live peer. The peer's
// ReliableEndpoint hands it to its oob_handler, which replies with a
// StateResponse carrying the peer's latest stable-point Checkpoint — or,
// when that response cannot fit one datagram, with a StateRefusal naming
// its size, so the recovering process fails at once instead of waiting
// out the deadline for a reply the transport drops every time. Only then
// is the node constructed from the transferred state.
//
// Oob payload layout:
//
//     request:  u8 kStateRequestTag   u64 requester  u64 have
//     response: u8 kStateResponseTag  Checkpoint
//     refusal:  u8 kStateRefusalTag   u64 response_bytes  u64 datagram_cap
//
// `have` is the requester's own digest-chain length — advisory (the
// response always carries the full chain; stable-point agreement makes
// the requester's prefix and the responder's chain interchangeable).
#pragma once

#include <netinet/in.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/checkpoint.h"
#include "transport/transport.h"

namespace cbc::fault {

inline constexpr std::uint8_t kStateRequestTag = 1;
inline constexpr std::uint8_t kStateResponseTag = 2;
inline constexpr std::uint8_t kStateRefusalTag = 3;

/// How long fetch_checkpoint_blocking waits for a reply.
inline constexpr std::chrono::seconds kTransferDeadline{30};

struct StateRequest {
  NodeId requester = 0;
  std::uint64_t have = 0;  ///< digest-chain length already held
};

/// A serving member's answer when its StateResponse does not fit one
/// datagram of its transport.
struct StateRefusal {
  std::uint64_t response_bytes = 0;  ///< the response as one datagram
  std::uint64_t datagram_cap = 0;    ///< the serving transport's cap
};

/// Oob payloads (the bytes handed to ReliableEndpoint::send_oob and
/// received by its oob_handler). Parsers return nullopt on malformed
/// input — these bytes come off an untrusted wire.
std::vector<std::uint8_t> encode_state_request(const StateRequest& request);
std::optional<StateRequest> parse_state_request(
    std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_state_response(const Checkpoint& snapshot);
std::optional<Checkpoint> parse_state_response(
    std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_state_refusal(const StateRefusal& refusal);
std::optional<StateRefusal> parse_state_refusal(
    std::span<const std::uint8_t> payload);

/// A serving member's reply to a StateRequest: the StateResponse carrying
/// `snapshot`, or a StateRefusal when that response, framed as one
/// datagram, exceeds `datagram_cap` bytes.
std::vector<std::uint8_t> encode_state_reply(const Checkpoint& snapshot,
                                             std::size_t datagram_cap);

/// Blocking pre-stack fetch of a live peer's latest stable checkpoint,
/// from the member's own address `self` to `peer`. Returns nullopt when
/// no reply arrives within kTransferDeadline; throws InvalidArgument when
/// `self` cannot be bound (the old process still holds it) or when the
/// peer refuses, naming the response's size and the peer's cap.
std::optional<Checkpoint> fetch_checkpoint_blocking(
    const StateRequest& request, const sockaddr_in& self,
    const sockaddr_in& peer);

}  // namespace cbc::fault
