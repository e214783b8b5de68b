#include "kv/shard_map.h"

#include <fstream>
#include <sstream>

#include "object/replicated_object.h"
#include "util/ensure.h"
#include "util/parse.h"

namespace cbc::kv {

namespace {

[[noreturn]] void bad_layout(std::size_t line, const std::string& what) {
  throw InvalidArgument("KvLayout: line " + std::to_string(line) + ": " +
                        what);
}

/// `token` as a whole decimal integer in [min, max], or a bad_layout
/// naming `what`.
std::uint64_t layout_number(std::size_t line, const std::string& what,
                            std::string_view token, std::uint64_t min,
                            std::uint64_t max) {
  try {
    return parse_uint(what, token, min, max);
  } catch (const InvalidArgument& error) {
    bad_layout(line, error.what());
  }
}

}  // namespace

KvLayout KvLayout::load(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "KvLayout::load: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

KvLayout KvLayout::parse(std::string_view text) {
  KvLayout layout;
  bool have_shards = false;
  bool have_replicas = false;
  std::istringstream lines{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword) || keyword[0] == '#') {
      continue;  // blank or comment
    }
    if (keyword == "shards" || keyword == "replicas") {
      std::string count;
      if (!(fields >> count)) {
        bad_layout(line_no, "expected '" + keyword + " <1..4096>'");
      }
      (keyword == "shards" ? layout.shards : layout.replicas) =
          layout_number(line_no, keyword, count, 1, 4096);
      (keyword == "shards" ? have_shards : have_replicas) = true;
      continue;
    }
    if (keyword != "member") {
      bad_layout(line_no, "unknown keyword '" + keyword + "'");
    }
    if (!have_shards || !have_replicas) {
      bad_layout(line_no, "member before shards/replicas counts");
    }
    std::string shard_token;
    std::string rank_token;
    std::string address;
    if (!(fields >> shard_token >> rank_token >> address)) {
      bad_layout(line_no, "expected 'member <shard> <rank> <host>:<port>'");
    }
    const std::size_t shard =
        layout_number(line_no, "shard", shard_token, 0, layout.shards - 1);
    // The router's slot is rank == replicas.
    const std::size_t rank =
        layout_number(line_no, "rank", rank_token, 0, layout.replicas);
    layout.addresses.resize(layout.shards);
    auto& shard_addrs = layout.addresses[shard];
    shard_addrs.resize(layout.replicas + 1);
    const std::size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= address.size()) {
      bad_layout(line_no, "address must be <host>:<port>");
    }
    net::MemberAddress member;
    member.host = address.substr(0, colon);
    const std::uint64_t port =
        layout_number(line_no, "port",
                      std::string_view(address).substr(colon + 1), 1, 65535);
    auto& slot = shard_addrs[rank];
    if (!slot.host.empty()) {
      bad_layout(line_no, "duplicate member (shard, rank)");
    }
    member.port = static_cast<std::uint16_t>(port);
    slot = member;
  }
  require(have_shards && have_replicas,
          "KvLayout::parse: missing shards/replicas counts");
  layout.addresses.resize(layout.shards);
  for (std::size_t shard = 0; shard < layout.shards; ++shard) {
    auto& shard_addrs = layout.addresses[shard];
    shard_addrs.resize(layout.replicas + 1);
    for (std::size_t rank = 0; rank <= layout.replicas; ++rank) {
      require(!shard_addrs[rank].host.empty(),
              "KvLayout::parse: shard " + std::to_string(shard) +
                  " missing rank " + std::to_string(rank));
    }
  }
  return layout;
}

KvLayout KvLayout::localhost(std::size_t shards, std::size_t replicas,
                             const std::vector<std::uint16_t>& ports) {
  require(shards >= 1 && replicas >= 1, "KvLayout::localhost: empty layout");
  require(ports.size() == shards * (replicas + 1),
          "KvLayout::localhost: need shards*(replicas+1) ports");
  KvLayout layout;
  layout.shards = shards;
  layout.replicas = replicas;
  layout.addresses.resize(shards);
  std::size_t next = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    layout.addresses[shard].resize(replicas + 1);
    for (std::size_t rank = 0; rank <= replicas; ++rank) {
      layout.addresses[shard][rank] = {"127.0.0.1", ports[next++]};
    }
  }
  return layout;
}

std::string KvLayout::encode_text() const {
  std::ostringstream out;
  out << "shards " << shards << "\n"
      << "replicas " << replicas << "\n";
  for (std::size_t shard = 0; shard < shards; ++shard) {
    for (std::size_t rank = 0; rank <= replicas; ++rank) {
      const net::MemberAddress& member = addresses[shard][rank];
      out << "member " << shard << " " << rank << " " << member.host << ":"
          << member.port << "\n";
    }
  }
  return out.str();
}

net::ClusterConfig KvLayout::shard_config(std::size_t shard) const {
  require(shard < shards, "KvLayout::shard_config: shard out of range");
  std::ostringstream text;
  for (std::size_t rank = 0; rank <= replicas; ++rank) {
    const net::MemberAddress& member = addresses[shard][rank];
    text << rank << " " << member.host << ":" << member.port << "\n";
  }
  return net::ClusterConfig::parse(text.str());
}

ShardMap::ShardMap(std::size_t shards) : shards_(shards) {
  require(shards >= 1, "ShardMap: need at least one shard");
}

std::size_t ShardMap::shard_of(std::string_view key) const {
  const auto* data = reinterpret_cast<const std::uint8_t*>(key.data());
  return object::fnv1a64({data, key.size()}) % shards_;
}

}  // namespace cbc::kv
