#include "net/cluster_config.h"

#include <arpa/inet.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/ensure.h"
#include "util/parse.h"

namespace cbc::net {

namespace {

std::uint32_t parse_ipv4(std::string_view host, std::size_t line_no) {
  std::string text(host == "localhost" ? std::string_view("127.0.0.1") : host);
  in_addr addr{};
  require(::inet_pton(AF_INET, text.c_str(), &addr) == 1,
          "ClusterConfig: line " + std::to_string(line_no) +
              ": host must be an IPv4 dotted quad or 'localhost', got '" +
              std::string(host) + "'");
  return ntohl(addr.s_addr);
}

}  // namespace

ClusterConfig ClusterConfig::load(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "ClusterConfig: cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

ClusterConfig ClusterConfig::parse(std::string_view text) {
  ClusterConfig config;
  std::istringstream lines{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    line_no += 1;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    const std::string where = "ClusterConfig: line " + std::to_string(line_no);
    std::istringstream fields(line);
    std::string id_token;
    std::string endpoint;
    std::string extra;
    require(static_cast<bool>(fields >> id_token >> endpoint) &&
                !(fields >> extra),
            where + ": expected '<id> <host>:<port>'");
    const std::size_t colon = endpoint.rfind(':');
    require(colon != std::string::npos && colon + 1 < endpoint.size(),
            where + ": address '" + endpoint + "' is missing ':<port>'");
    const std::string host = endpoint.substr(0, colon);
    const std::uint64_t id = parse_uint(where + ": member id", id_token, 0,
                                        kNoNode - 1);
    const std::uint64_t port = parse_uint(
        where + ": port in '" + endpoint + "'",
        std::string_view(endpoint).substr(colon + 1), 1, 65535);
    require(id == config.members_.size(),
            where + ": ids must be dense and ascending from 0, got " +
                std::to_string(id) + " at position " +
                std::to_string(config.members_.size()));
    Resolved resolved;
    resolved.address =
        MemberAddress{host, static_cast<std::uint16_t>(port)};
    resolved.ipv4 = parse_ipv4(host, line_no);
    config.members_.push_back(std::move(resolved));
  }
  require(!config.members_.empty(), "ClusterConfig: no members defined");
  return config;
}

ClusterConfig ClusterConfig::localhost(
    const std::vector<std::uint16_t>& ports) {
  std::ostringstream text;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    text << i << " 127.0.0.1:" << ports[i] << "\n";
  }
  return parse(text.str());
}

const MemberAddress& ClusterConfig::member(NodeId id) const {
  require(id < members_.size(), "ClusterConfig: no such member id");
  return members_[id].address;
}

sockaddr_in ClusterConfig::sockaddr_of(NodeId id) const {
  require(id < members_.size(), "ClusterConfig: no such member id");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(members_[id].ipv4);
  addr.sin_port = htons(members_[id].address.port);
  return addr;
}

std::optional<NodeId> ClusterConfig::node_at(std::uint32_t ipv4_host_order,
                                             std::uint16_t port) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].ipv4 == ipv4_host_order &&
        members_[i].address.port == port) {
      return static_cast<NodeId>(i);
    }
  }
  return std::nullopt;
}

std::vector<NodeId> ClusterConfig::to_view() const {
  std::vector<NodeId> view(members_.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i] = static_cast<NodeId>(i);
  }
  return view;
}

}  // namespace cbc::net
