#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double counter(const LayerInputs& in, const std::string& name) {
  const auto it = in.counters.find(name);
  return it == in.counters.end() ? 0.0 : it->second;
}

double gauge(const LayerInputs& in, const std::string& name) {
  const auto it = in.gauges.find(name);
  return it == in.gauges.end() ? 0.0 : it->second;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[index];
}

double tail_rate(const PhaseSamples& phase) {
  const std::vector<std::int64_t>& ends = phase.round_end_ns;
  if (ends.size() < 10) {
    return 0.0;
  }
  // Round boundaries, not op completions: ops complete in per-round
  // bursts, and a window cut inside a burst would add noise.
  const std::int64_t boundary = ends[ends.size() - ends.size() / 10 - 1];
  const auto ops = std::count_if(
      phase.completion_ns.begin(), phase.completion_ns.end(),
      [&](std::int64_t at) { return at > boundary; });
  return ratio(static_cast<double>(ops),
               static_cast<double>(ends.back() - boundary) / 1e9);
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double ops_per_second(const PhaseSamples& phase) {
  return ratio(static_cast<double>(phase.ops),
               static_cast<double>(phase.end_ns - phase.start_ns) / 1e9);
}

std::vector<Metric> end_to_end_metrics(const std::vector<Episode>& episodes,
                                       bool simulated_latency) {
  const auto best = [&](bool higher, auto per_episode) {
    double value = 0.0;
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      const double v = per_episode(episodes[i]);
      if (i == 0 || (higher ? v > value : v < value)) {
        value = v;
      }
    }
    return value;
  };
  // Wall-clock latency: the best episode's percentile. Simulated latency
  // does not depend on the machine: a fixed set of episodes pools.
  const auto latency = [&](auto samples_of, double q) {
    if (!simulated_latency) {
      return best(false, [&](const Episode& e) {
        return percentile(samples_of(e), q);
      });
    }
    std::vector<double> pooled;
    for (std::size_t i = 0; i < std::min(episodes.size(), kPooledEpisodes); ++i) {
      const std::vector<double>& samples = samples_of(episodes[i]);
      pooled.insert(pooled.end(), samples.begin(), samples.end());
    }
    return percentile(std::move(pooled), q);
  };
  const auto ops = [](const Episode& e) -> const std::vector<double>& {
    return e.phase.op_latency_us;
  };
  const auto stable = [](const Episode& e) -> const std::vector<double>& {
    return e.phase.stable_point_us;
  };
  return {
      {"setup_s", best(false, [](const Episode& e) { return e.setup_s; }), "s"},
      {"ops_per_s",
       best(true, [](const Episode& e) { return ops_per_second(e.phase); }),
       "ops/s"},
      {"tail_ops_per_s",
       best(true, [](const Episode& e) { return tail_rate(e.phase); }),
       "ops/s"},
      {"op_latency_p50_us", latency(ops, 50), "us"},
      {"op_latency_p99_us", latency(ops, 99), "us"},
      {"stable_point_p50_us", latency(stable, 50), "us"},
      {"stable_point_p90_us", latency(stable, 90), "us"},
      {"cpu_us_per_op", best(false, [](const Episode& e) {
         return ratio(e.phase.cpu_s * 1e6, static_cast<double>(e.phase.ops));
       }),
       "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

void LayerInputs::add(const LayerInputs& episode) {
  ops += episode.ops;
  exact_counts = episode.exact_counts;
  if (!exact_counts || count_ops == 0) {
    count_ops += episode.count_ops;
    for (const auto& [name, value] : episode.counters) {
      counters[name] += value;
    }
  }
  gauges = episode.gauges;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    allocs[i] += episode.allocs[i];
  }
  net_bytes += episode.net_bytes;
  flight_records += episode.flight_records;
  loop_cpu_s += episode.loop_cpu_s;
  wall_s += episode.wall_s;
  graph_nodes = episode.graph_nodes;
  check_retained = episode.check_retained;
  stable_states = episode.stable_states;
  client_resends += episode.client_resends;
  client_exchanges += episode.client_exchanges;
  // Per-request average, weighted by the episode's requests.
  token_bytes_per_request =
      ratio(token_bytes_per_request * static_cast<double>(ops - episode.ops) +
                episode.token_bytes_per_request *
                    static_cast<double>(episode.ops),
            static_cast<double>(ops));
}

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
  const double ops = static_cast<double>(in.ops);
  const double count_ops = static_cast<double>(in.count_ops);
  const auto span = [&](SpanKind kind) {
    return in.spans != nullptr ? in.spans->totals(kind) : SpanTotals{};
  };
  const auto allocs = [&](Layer layer) {
    return ratio(static_cast<double>(in.allocs[static_cast<std::size_t>(layer)]),
                 ops);
  };
  const double injected =
      counter(in, "fault.drops") + counter(in, "fault.duplicates") +
      counter(in, "fault.delays") + counter(in, "fault.reorders") +
      counter(in, "fault.partition_drops") + counter(in, "fault.crash_drops");
  return {
      {"net.send_ns_per_datagram", span(SpanKind::kNetSend).mean_self_ns(), "ns"},
      {"net.datagrams_per_op", ratio(counter(in, "net.datagrams"), count_ops),
       "count"},
      {"net.bytes_per_op", ratio(static_cast<double>(in.net_bytes), ops), "B"},
      {"net.loop_busy_frac", ratio(in.loop_cpu_s, in.wall_s), "frac"},
      {"net.allocs_per_op", allocs(Layer::kNet), "count"},
      {"transport.frames_per_datagram",
       ratio(counter(in, "batch.messages_in"), counter(in, "batch.batches_out")),
       "count"},
      {"transport.batch_send_ns_per_frame",
       span(SpanKind::kTransportSend).mean_self_ns(), "ns"},
      {"transport.unbatch_ns_per_datagram",
       span(SpanKind::kTransportUnbatch).mean_self_ns(), "ns"},
      {"transport.retransmits_per_op",
       ratio(counter(in, "reliable.retransmissions"), count_ops), "count"},
      {"transport.dup_drops_per_op",
       ratio(counter(in, "reliable.duplicates_suppressed"), count_ops), "count"},
      {"transport.control_frames_per_op",
       ratio(counter(in, "reliable.control_frames"), count_ops), "count"},
      {"transport.allocs_per_op", allocs(Layer::kTransport), "count"},
      {"fault.injected_per_op", ratio(injected, count_ops), "count"},
      {"causal.recv_ns_per_frame", span(SpanKind::kCausalRecv).mean_self_ns(),
       "ns"},
      {"causal.recv_ns_growth", span(SpanKind::kCausalRecv).growth(), "ratio"},
      {"causal.graph_nodes", in.graph_nodes, "count"},
      {"causal.broadcast_ns", span(SpanKind::kCausalBroadcast).mean_self_ns(),
       "ns"},
      {"causal.held_back_frac",
       ratio(counter(in, "osend.held_back"), counter(in, "osend.received")),
       "frac"},
      {"causal.hold_us_p99", gauge(in, "osend.hold_us.p99"), "us"},
      {"causal.allocs_per_op", allocs(Layer::kCausal), "count"},
      {"check.ns_per_delivery", span(SpanKind::kCheckDeliver).mean_self_ns(),
       "ns"},
      {"check.ns_growth", span(SpanKind::kCheckDeliver).growth(), "ratio"},
      {"check.retained", in.check_retained, "count"},
      {"check.allocs_per_op", allocs(Layer::kCheck), "count"},
      {"replica.apply_ns_per_delivery",
       span(SpanKind::kReplicaApply).mean_self_ns(), "ns"},
      {"replica.submit_ns", span(SpanKind::kReplicaSubmit).mean_self_ns(), "ns"},
      {"replica.stable_states", in.stable_states, "count"},
      {"replica.allocs_per_op", allocs(Layer::kReplica), "count"},
      {"kv.handle_ns_per_request", span(SpanKind::kKvHandle).mean_self_ns(),
       "ns"},
      {"kv.drain_ns_per_delivery", span(SpanKind::kKvDrain).mean_self_ns(),
       "ns"},
      {"kv.parked_frac",
       ratio(counter(in, "kv.context_waits"), counter(in, "kv.requests")),
       "frac"},
      {"kv.context_wait_us_p99", gauge(in, "kv.context_wait_us.p99"), "us"},
      {"kv.client_resends_per_request",
       ratio(in.client_resends, in.client_exchanges), "count"},
      {"kv.token_bytes_per_request", in.token_bytes_per_request, "B"},
      {"kv.allocs_per_op", allocs(Layer::kKv), "count"},
      {"obs.flight_records_per_op",
       ratio(static_cast<double>(in.flight_records), ops), "count"},
      {"trace.overhead_frac",
       in.untraced_ops_per_s == 0.0
           ? 0.0
           : 1.0 - in.traced_ops_per_s / in.untraced_ops_per_s,
       "frac"},
      {"trace.untraced_ops_per_s", in.untraced_ops_per_s, "ops/s"},
      {"trace.traced_ops_per_s", in.traced_ops_per_s, "ops/s"},
  };
}

std::string result_json(const Verdict& verdict,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (verdict.correct() ? "true" : "false")
      << ", \"attempted\": " << verdict.attempted
      << ", \"failed\": " << verdict.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << format_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
