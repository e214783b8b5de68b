#include "fault/state_transfer.h"

#include <string>

#include "net/oob_client.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace cbc::fault {

std::vector<std::uint8_t> encode_state_request(const StateRequest& request) {
  Writer writer;
  writer.u8(kStateRequestTag);
  writer.u64(request.requester);
  writer.u64(request.have);
  return writer.take();
}

std::optional<StateRequest> parse_state_request(
    std::span<const std::uint8_t> payload) {
  try {
    Reader reader(payload);
    if (reader.u8() != kStateRequestTag) {
      return std::nullopt;
    }
    StateRequest request;
    request.requester = static_cast<NodeId>(reader.u64());
    request.have = reader.u64();
    if (!reader.exhausted()) {
      return std::nullopt;
    }
    return request;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> encode_state_response(const Checkpoint& snapshot) {
  Writer writer;
  writer.u8(kStateResponseTag);
  snapshot.encode(writer);
  return writer.take();
}

std::optional<Checkpoint> parse_state_response(
    std::span<const std::uint8_t> payload) {
  try {
    Reader reader(payload);
    if (reader.u8() != kStateResponseTag) {
      return std::nullopt;
    }
    Checkpoint snapshot = Checkpoint::decode(reader);
    if (!reader.exhausted()) {
      return std::nullopt;
    }
    return snapshot;
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> encode_state_refusal(const StateRefusal& refusal) {
  Writer writer;
  writer.u8(kStateRefusalTag);
  writer.u64(refusal.response_bytes);
  writer.u64(refusal.datagram_cap);
  return writer.take();
}

std::optional<StateRefusal> parse_state_refusal(
    std::span<const std::uint8_t> payload) {
  try {
    Reader reader(payload);
    if (reader.u8() != kStateRefusalTag) {
      return std::nullopt;
    }
    StateRefusal refusal;
    refusal.response_bytes = reader.u64();
    refusal.datagram_cap = reader.u64();
    if (!reader.exhausted()) {
      return std::nullopt;
    }
    return refusal;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> encode_state_reply(const Checkpoint& snapshot,
                                             std::size_t datagram_cap) {
  std::vector<std::uint8_t> response = encode_state_response(snapshot);
  const std::size_t framed = net::OobClient::datagram(response)->size();
  if (framed <= datagram_cap) {
    return response;
  }
  return encode_state_refusal(
      {.response_bytes = framed, .datagram_cap = datagram_cap});
}

std::optional<Checkpoint> fetch_checkpoint_blocking(
    const StateRequest& request, const sockaddr_in& self,
    const sockaddr_in& peer) {
  net::OobClient client({self});
  std::optional<Checkpoint> snapshot;
  std::optional<StateRefusal> refusal;
  const auto reply = [&](std::span<const std::uint8_t> payload) {
    snapshot = parse_state_response(payload);
    refusal = parse_state_refusal(payload);
    return snapshot.has_value() || refusal.has_value();
  };
  (void)client.exchange(0, peer, encode_state_request(request),
                        kTransferDeadline, reply);
  if (refusal.has_value()) {
    throw InvalidArgument(
        "state transfer refused: the peer's checkpoint response is " +
        std::to_string(refusal->response_bytes) + " bytes, over its " +
        std::to_string(refusal->datagram_cap) + "-byte datagram cap");
  }
  return snapshot;
}

}  // namespace cbc::fault
