// cbc_top — the one-screen cluster view over every node's metrics
// endpoint.
//
//   cbc_top --report progress_s0_r0.txt --report progress_s0_r1.txt ...
//   cbc_top --endpoint 127.0.0.1:9100 --endpoint 127.0.0.1:9101 [--json]
//   cbc_top --report-dir /tmp/cbc_kv_XXXX [--watch 2]
//
// Discovery: each --report names a key=value file a cbc_node/cbc_kv
// process rewrites continuously (its --progress or --report path); the
// `metrics_port=` line carries the live ephemeral scrape port and the
// `id=` or `shard=`/`rank=` lines the process identity. --report-dir
// scans a harness directory for progress*/report* files. --endpoint
// skips discovery and names a scrape target directly.
//
// Each target's /metrics.json (the flat MetricsRegistry::snapshot()) is
// fetched over plain HTTP/1.1 and merged: same-family series are summed
// across processes, except `.p50`/`.p90`/`.p99` percentile estimates,
// which merge by max (an upper bound — percentiles do not add). The
// per-shard section summarizes `kv.context_wait_us` across each shard's
// replicas: summed count, max percentile per quantile.
//
// --json prints one machine-readable object (nodes, merged cluster
// families, per-shard context-wait stats) for CI gates; the default is
// a human one-screen rendering. --watch N redraws every N seconds.
// Exit 0 when every target answered, 1 when any scrape failed, 2 on
// usage errors.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json_lite.h"
#include "util/ensure.h"
#include "util/parse.h"

namespace {

struct TopArgs {
  std::vector<std::string> endpoints;     // host:port
  std::vector<std::string> report_paths;  // key=value discovery files
  std::vector<std::string> report_dirs;
  bool json = false;
  int timeout_ms = 2000;
  int watch_s = 0;
};

/// One scrape target and what we know about it.
struct Target {
  std::string label;       // "node3", "shard2/0", or the endpoint
  std::string endpoint;    // host:port
  std::optional<int> shard;
  bool up = false;
  std::map<std::string, double> metrics;
};

constexpr auto kMaxInt =
    static_cast<std::uint64_t>(std::numeric_limits<int>::max());

/// Splits "HOST:PORT"; throws cbc::InvalidArgument unless PORT is a whole
/// number in [1, 65535].
std::pair<std::string, int> split_endpoint(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  cbc::require(colon != std::string::npos,
               "endpoint '" + endpoint + "' is missing ':PORT'");
  const auto port = cbc::parse_uint(
      "endpoint port", std::string_view(endpoint).substr(colon + 1), 1, 65535);
  return {endpoint.substr(0, colon), static_cast<int>(port)};
}

int usage() {
  std::cerr
      << "usage: cbc_top [--json] [--watch SECONDS] [--timeout-ms N]\n"
         "               [--endpoint HOST:PORT]... [--report FILE]...\n"
         "               [--report-dir DIR]...\n"
         "  --endpoint   scrape this address directly\n"
         "  --report     key=value progress/report file carrying\n"
         "               metrics_port= (and id= or shard=/rank=)\n"
         "  --report-dir scan DIR for progress*/report* files\n"
         "  --json       machine-readable output (CI gates)\n"
         "  --watch N    redraw every N seconds\n";
  return 2;
}

std::optional<TopArgs> parse_args(int argc, char** argv) try {
  TopArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    if (flag == "--endpoint") {
      const auto v = value();
      if (!v) return std::nullopt;
      // A bare PORT means a loopback endpoint.
      const std::string endpoint =
          v->find(':') == std::string::npos ? "127.0.0.1:" + *v : *v;
      (void)split_endpoint(endpoint);
      args.endpoints.push_back(endpoint);
    } else if (flag == "--report") {
      const auto v = value();
      if (!v) return std::nullopt;
      args.report_paths.push_back(*v);
    } else if (flag == "--report-dir") {
      const auto v = value();
      if (!v) return std::nullopt;
      args.report_dirs.push_back(*v);
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--timeout-ms") {
      const auto v = value();
      if (!v) return std::nullopt;
      args.timeout_ms =
          static_cast<int>(cbc::parse_uint(flag, *v, 1, kMaxInt));
    } else if (flag == "--watch") {
      const auto v = value();
      if (!v) return std::nullopt;
      args.watch_s =
          static_cast<int>(cbc::parse_uint(flag, *v, 0, kMaxInt));
    } else {
      return std::nullopt;
    }
  }
  if (args.endpoints.empty() && args.report_paths.empty() &&
      args.report_dirs.empty()) {
    return std::nullopt;
  }
  return args;
} catch (const cbc::InvalidArgument& error) {
  std::cerr << "cbc_top: " << error.what() << "\n";
  return std::nullopt;
}

std::map<std::string, std::string> parse_kv_file(const std::string& path) {
  std::map<std::string, std::string> kv;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) {
      kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  return kv;
}

/// Report/progress file -> scrape target. Empty optional when the file
/// is missing, carries no metrics_port, or the process runs without a
/// metrics endpoint; a metrics_port= or shard= that is not a whole number
/// is named on stderr and names no target.
std::optional<Target> discover(const std::string& path) try {
  const auto kv = parse_kv_file(path);
  const auto port = kv.find("metrics_port");
  if (port == kv.end() || port->second == "none" || port->second.empty()) {
    return std::nullopt;
  }
  Target target;
  target.endpoint = "127.0.0.1:" + port->second;
  (void)split_endpoint(target.endpoint);
  if (const auto shard = kv.find("shard"); shard != kv.end()) {
    target.shard =
        static_cast<int>(cbc::parse_uint("shard", shard->second, 0, kMaxInt));
    const auto rank = kv.find("rank");
    target.label = "shard" + shard->second + "/" +
                   (rank != kv.end() ? rank->second : "?");
  } else if (const auto id = kv.find("id"); id != kv.end()) {
    target.label = "node" + id->second;
  } else {
    target.label = target.endpoint;
  }
  return target;
} catch (const cbc::InvalidArgument& error) {
  std::cerr << "cbc_top: " << path << ": " << error.what() << "\n";
  return std::nullopt;
}

std::vector<std::string> scan_dir(const std::string& dir) {
  std::vector<std::string> paths;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return paths;
  }
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.rfind("progress", 0) == 0 || name.rfind("report", 0) == 0) {
      paths.push_back(dir + "/" + name);
    }
  }
  ::closedir(handle);
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Minimal blocking HTTP/1.1 GET against a loopback-style endpoint;
/// returns the response body or nullopt on any failure.
std::optional<std::string> http_get(const std::string& host, int port,
                                    const std::string& path, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return std::nullopt;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) {
      break;
    }
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos || response.rfind("HTTP/1.", 0) != 0 ||
      response.find(" 200 ") == std::string::npos ||
      response.find(" 200 ") > response.find("\r\n")) {
    return std::nullopt;
  }
  return response.substr(split + 4);
}

bool scrape(Target& target, int timeout_ms) {
  // parse_args and discover() checked every endpoint's port.
  const auto [host, port] = split_endpoint(target.endpoint);
  const auto body = http_get(host, port, "/metrics.json", timeout_ms);
  if (!body) {
    return false;
  }
  try {
    const cbc::obs::JsonValue doc = cbc::obs::json_parse(*body);
    for (const auto& [name, value] : doc.as_object()) {
      target.metrics[name] = value.as_number();
    }
  } catch (const std::exception&) {
    return false;
  }
  target.up = true;
  return true;
}

bool is_percentile(const std::string& name) {
  return name.size() > 4 && (name.compare(name.size() - 4, 4, ".p50") == 0 ||
                             name.compare(name.size() - 4, 4, ".p90") == 0 ||
                             name.compare(name.size() - 4, 4, ".p99") == 0);
}

/// Cluster-wide merge: sum per family, max for percentile estimates
/// (percentiles do not add; max is an honest upper bound).
std::map<std::string, double> merge(const std::vector<Target>& targets) {
  std::map<std::string, double> merged;
  for (const Target& target : targets) {
    for (const auto& [name, value] : target.metrics) {
      if (is_percentile(name)) {
        auto [it, inserted] = merged.emplace(name, value);
        if (!inserted) {
          it->second = std::max(it->second, value);
        }
      } else {
        merged[name] += value;
      }
    }
  }
  return merged;
}

struct ShardWait {
  double count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

/// Per-shard kv.context_wait_us summary across that shard's replicas.
std::map<int, ShardWait> shard_waits(const std::vector<Target>& targets) {
  std::map<int, ShardWait> shards;
  for (const Target& target : targets) {
    if (!target.shard.has_value() || !target.up) {
      continue;
    }
    ShardWait& wait = shards[*target.shard];
    auto metric = [&](const std::string& name) {
      const auto it = target.metrics.find("kv.context_wait_us" + name);
      return it != target.metrics.end() ? it->second : 0.0;
    };
    wait.count += metric(".count");
    wait.p50 = std::max(wait.p50, metric(".p50"));
    wait.p90 = std::max(wait.p90, metric(".p90"));
    wait.p99 = std::max(wait.p99, metric(".p99"));
  }
  return shards;
}

double metric_or(const Target& target, const std::string& name) {
  const auto it = target.metrics.find(name);
  return it != target.metrics.end() ? it->second : 0.0;
}

void render_human(const std::vector<Target>& targets,
                  const std::map<std::string, double>& cluster,
                  const std::map<int, ShardWait>& shards) {
  std::size_t up = 0;
  for (const Target& target : targets) {
    up += target.up ? 1 : 0;
  }
  auto family = [&](const std::string& name) {
    const auto it = cluster.find(name);
    return it != cluster.end() ? it->second : 0.0;
  };
  std::printf("cbc_top — %zu/%zu endpoints up\n", up, targets.size());
  std::printf(
      "cluster: delivered=%.0f holds=%.0f kv.requests=%.0f "
      "kv.context_waits=%.0f flight.records=%.0f faults=%.0f\n",
      family("osend.delivered"), family("osend.holds"),
      family("kv.requests"), family("kv.context_waits"),
      family("flight.records"),
      family("fault.drops") + family("fault.duplicates") +
          family("fault.delays") + family("fault.reorders"));
  std::printf("%-12s %-16s %-5s %10s %12s %12s %10s %8s %9s\n", "PROCESS",
              "ENDPOINT", "UP", "DELIVERED", "HOLD_P99us", "KVWAIT_P99us",
              "FLIGHT", "RSS_MB", "RETAINED");
  for (const Target& target : targets) {
    std::printf("%-12s %-16s %-5s %10.0f %12.0f %12.0f %10.0f %8.1f %9.0f\n",
                target.label.c_str(), target.endpoint.c_str(),
                target.up ? "yes" : "NO",
                metric_or(target, "osend.delivered"),
                metric_or(target, "osend.hold_us.p99"),
                metric_or(target, "kv.context_wait_us.p99"),
                metric_or(target, "flight.records"),
                metric_or(target, "process.rss_bytes") / (1024.0 * 1024.0),
                metric_or(target, "check.retained"));
  }
  if (!shards.empty()) {
    std::printf("per-shard kv.context_wait_us:\n");
    for (const auto& [shard, wait] : shards) {
      std::printf("  shard %d: count=%.0f p50=%.0f p90=%.0f p99=%.0f\n",
                  shard, wait.count, wait.p50, wait.p90, wait.p99);
    }
  }
}

std::string render_json(const std::vector<Target>& targets,
                        const std::map<std::string, double>& cluster,
                        const std::map<int, ShardWait>& shards) {
  using cbc::obs::JsonArray;
  using cbc::obs::JsonObject;
  using cbc::obs::JsonValue;
  std::size_t up = 0;
  JsonArray nodes;
  for (const Target& target : targets) {
    up += target.up ? 1 : 0;
    JsonObject node;
    node.emplace("label", JsonValue(target.label));
    node.emplace("endpoint", JsonValue(target.endpoint));
    node.emplace("up", JsonValue(target.up));
    if (target.shard.has_value()) {
      node.emplace("shard", JsonValue(static_cast<double>(*target.shard)));
    }
    JsonObject metrics;
    for (const auto& [name, value] : target.metrics) {
      metrics.emplace(name, JsonValue(value));
    }
    node.emplace("metrics", JsonValue(std::move(metrics)));
    nodes.push_back(JsonValue(std::move(node)));
  }
  JsonObject cluster_object;
  for (const auto& [name, value] : cluster) {
    cluster_object.emplace(name, JsonValue(value));
  }
  JsonObject shards_object;
  for (const auto& [shard, wait] : shards) {
    JsonObject entry;
    entry.emplace("count", JsonValue(wait.count));
    entry.emplace("p50", JsonValue(wait.p50));
    entry.emplace("p90", JsonValue(wait.p90));
    entry.emplace("p99", JsonValue(wait.p99));
    shards_object.emplace(std::to_string(shard), JsonValue(std::move(entry)));
  }
  JsonObject root;
  root.emplace("endpoints", JsonValue(static_cast<double>(targets.size())));
  root.emplace("up", JsonValue(static_cast<double>(up)));
  root.emplace("nodes", JsonValue(std::move(nodes)));
  root.emplace("cluster", JsonValue(std::move(cluster_object)));
  root.emplace("shards", JsonValue(std::move(shards_object)));
  return JsonValue(std::move(root)).dump();
}

int run_once(const TopArgs& args) {
  std::vector<Target> targets;
  for (const std::string& endpoint : args.endpoints) {
    Target target;
    target.endpoint = endpoint;
    target.label = target.endpoint;
    targets.push_back(std::move(target));
  }
  std::vector<std::string> report_paths = args.report_paths;
  for (const std::string& dir : args.report_dirs) {
    const auto scanned = scan_dir(dir);
    report_paths.insert(report_paths.end(), scanned.begin(), scanned.end());
  }
  // A process is discoverable through both its progress and its report
  // file (--report-dir scans both); scrape each endpoint once or
  // `merge` would double-count its sums.
  std::set<std::string> seen;
  for (const Target& target : targets) {
    seen.insert(target.endpoint);
  }
  for (const std::string& path : report_paths) {
    if (auto target = discover(path)) {
      if (seen.insert(target->endpoint).second) {
        targets.push_back(std::move(*target));
      }
    }
  }
  if (targets.empty()) {
    std::cerr << "cbc_top: no scrape targets discovered\n";
    return 1;
  }
  bool all_up = true;
  for (Target& target : targets) {
    all_up = scrape(target, args.timeout_ms) && all_up;
  }
  const std::map<std::string, double> cluster = merge(targets);
  const std::map<int, ShardWait> shards = shard_waits(targets);
  if (args.json) {
    std::cout << render_json(targets, cluster, shards) << "\n";
  } else {
    render_human(targets, cluster, shards);
  }
  return all_up ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<TopArgs> args = parse_args(argc, argv);
  if (!args) {
    return usage();
  }
  if (args->watch_s <= 0) {
    return run_once(*args);
  }
  for (;;) {
    std::printf("\x1b[2J\x1b[H");  // clear + home
    run_once(*args);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(args->watch_s));
  }
}
