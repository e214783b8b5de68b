// Static cluster membership: node id -> UDP address.
//
// The paper's group model (§2) assumes a fixed, globally known set of
// members per logical group, and the group never changes: a restarted
// member rejoins with its own id from a checkpoint (cbc_node --recover).
// ClusterConfig is the network-side realization of that assumption: a
// small text file maps each dense NodeId to a host:port, every process
// loads the same file, and the resulting addressing is — like the paper's
// dependency graphs — "stable information, identical at all members".
//
// File format, one member per line, ids dense from 0:
//
//   # comment / blank lines ignored
//   0 127.0.0.1:9100
//   1 127.0.0.1:9101
//   2 192.168.7.20:9100
//
// Hosts are IPv4 dotted quads or the literal "localhost" (no resolver
// dependency — cluster files name concrete interfaces).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace cbc::net {

/// One member's wire address.
struct MemberAddress {
  std::string host;        ///< dotted quad as written in the file
  std::uint16_t port = 0;  ///< UDP port, host byte order
};

/// Immutable id->address map shared by every process of a cluster.
class ClusterConfig {
 public:
  /// Parses the file at `path`; throws InvalidArgument naming the line on
  /// any malformed entry, duplicate or non-dense id, or unreadable file.
  [[nodiscard]] static ClusterConfig load(const std::string& path);

  /// Parses config text directly (used by tests and the harness).
  [[nodiscard]] static ClusterConfig parse(std::string_view text);

  /// Builds an n-member localhost cluster on the given ports.
  [[nodiscard]] static ClusterConfig localhost(
      const std::vector<std::uint16_t>& ports);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] const MemberAddress& member(NodeId id) const;

  /// Socket address of `id`, ready for sendto().
  [[nodiscard]] sockaddr_in sockaddr_of(NodeId id) const;

  /// Reverse lookup: which member owns this source address? nullopt for
  /// strangers (UdpTransport counts and drops those datagrams).
  [[nodiscard]] std::optional<NodeId> node_at(std::uint32_t ipv4_host_order,
                                              std::uint16_t port) const;

  /// All member ids, dense 0..size-1 — the initial group view.
  [[nodiscard]] std::vector<NodeId> to_view() const;

 private:
  struct Resolved {
    MemberAddress address;
    std::uint32_t ipv4 = 0;  // host byte order
  };

  std::vector<Resolved> members_;
};

}  // namespace cbc::net
