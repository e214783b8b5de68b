// C2 — Claim (§6.1): the access protocol exploits the cycle
//   rqst_nc(r-1) -> ||{rqst_c(r,k)} k=1..f̄ -> rqst_nc(r),
// "typically 90% of operations are commutative (f̄ = 20)". The more
// commutative the mix, the more the causal protocol wins over per-message
// total ordering: commutative requests cost one broadcast hop and no
// serialization, while every total-order message pays the ordering round.
//
// Sweep f̄ in {0, 1, 9, 20, 99} (commutative fraction 0%..99%) over the
// stable-point protocol and the two total-order baselines, with identical
// workloads.
#include "apps/counter.h"
#include "baseline/total_replica.h"
#include "bench_common.h"
#include "common/recorder.h"
#include "replica/replica_group.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cbc {
namespace {

using benchkit::Table;
using testkit::SimEnv;

struct Result {
  SimTime total_sim_us = 0;
  double mean_read_latency_us = 0;
  std::uint64_t wire_msgs = 0;
  double coverage_pct = 100.0;
  std::uint64_t stable_points = 0;
};

constexpr std::size_t kMembers = 4;
constexpr int kCycles = 30;

SimEnv::Config config_for(std::uint64_t seed) {
  SimEnv::Config config;
  config.jitter_us = 1500;
  config.seed = seed;
  return config;
}

Result run_stable_point(std::uint64_t f_bar, std::uint64_t seed) {
  SimEnv env(config_for(seed));
  ReplicaGroup<apps::Counter> group(env.transport, kMembers,
                                    apps::Counter::spec());
  // Coverage is read per stable point.
  const auto recorders = testkit::record_replicas(group);
  Rng rng(seed + 1);
  Histogram read_latency;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (std::uint64_t k = 0; k < f_bar; ++k) {
      group.node(rng.next_below(kMembers)).submit(apps::Counter::inc(1));
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(300)));
    }
    // The front-end manager issues the sync op once the commutative burst
    // has mostly reached it (the paper's manager "generates an ordering of
    // the requests based on the knowledge available").
    env.run_until(env.scheduler.now() + 2500);
    const SimTime issued_at = env.scheduler.now();
    group.node(0).submit(apps::Counter::rd());
    env.run();  // the sync op's delivery everywhere is the stable point
    read_latency.add(static_cast<double>(env.scheduler.now() - issued_at));
  }
  Result result;
  result.total_sim_us = env.scheduler.now();
  result.mean_read_latency_us = read_latency.mean();
  result.wire_msgs = env.network.stats().sent;
  result.stable_points = recorders[0]->points().size();
  std::uint64_t covered = 0;
  std::uint64_t points = 0;
  for (std::size_t i = 0; i < kMembers; ++i) {
    for (const StablePoint& point : recorders[i]->points()) {
      ++points;
      covered += point.coverage_complete ? 1 : 0;
    }
  }
  result.coverage_pct =
      points == 0 ? 100.0
                  : 100.0 * static_cast<double>(covered) /
                        static_cast<double>(points);
  return result;
}

Result run_total(std::uint64_t f_bar, std::uint64_t seed,
                 TotalOrderEngine engine) {
  SimEnv env(config_for(seed));
  const GroupView view = testkit::make_view(kMembers);
  TotalReplicaNode<apps::Counter>::Options options;
  options.engine = engine;
  std::vector<std::unique_ptr<TotalReplicaNode<apps::Counter>>> nodes;
  for (std::size_t i = 0; i < kMembers; ++i) {
    nodes.push_back(std::make_unique<TotalReplicaNode<apps::Counter>>(
        env.transport, view, options));
  }
  Rng rng(seed + 1);
  Histogram read_latency;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (std::uint64_t k = 0; k < f_bar; ++k) {
      nodes[rng.next_below(kMembers)]->submit(apps::Counter::inc(1));
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(300)));
    }
    env.run_until(env.scheduler.now() + 2500);  // same think-time as above
    const SimTime issued_at = env.scheduler.now();
    nodes[0]->submit(apps::Counter::rd());
    env.run();
    read_latency.add(static_cast<double>(env.scheduler.now() - issued_at));
  }
  Result result;
  result.total_sim_us = env.scheduler.now();
  result.mean_read_latency_us = read_latency.mean();
  result.wire_msgs = env.network.stats().sent;
  return result;
}

int run() {
  benchkit::banner("C2", "commutative/non-commutative mix (f̄ sweep, §6.1)");
  Table table({"f_bar", "commutative%", "protocol", "sim_time_ms",
               "read_latency_us", "wire_msgs", "coverage%"});
  for (const std::uint64_t f_bar : {0, 1, 9, 20, 99}) {
    const double pct = 100.0 * static_cast<double>(f_bar) /
                       static_cast<double>(f_bar + 1);
    const Result sp = run_stable_point(f_bar, 11);
    table.row({benchkit::num(f_bar), benchkit::num(pct, 1),
               "stable-point (OSend)",
               benchkit::num(static_cast<double>(sp.total_sim_us) / 1000.0),
               benchkit::num(sp.mean_read_latency_us),
               benchkit::num(sp.wire_msgs), benchkit::num(sp.coverage_pct, 1)});
    const Result am = run_total(f_bar, 11, TotalOrderEngine::kASendMerge);
    table.row({benchkit::num(f_bar), benchkit::num(pct, 1),
               "total (ASend merge)",
               benchkit::num(static_cast<double>(am.total_sim_us) / 1000.0),
               benchkit::num(am.mean_read_latency_us),
               benchkit::num(am.wire_msgs), "-"});
    const Result sq = run_total(f_bar, 11, TotalOrderEngine::kSequencer);
    table.row({benchkit::num(f_bar), benchkit::num(pct, 1),
               "total (sequencer)",
               benchkit::num(static_cast<double>(sq.total_sim_us) / 1000.0),
               benchkit::num(sq.mean_read_latency_us),
               benchkit::num(sq.wire_msgs), "-"});
  }
  table.print();
  benchkit::claim(
      "commutative operations (typically ~90%, f̄≈20) can be processed in "
      "relaxed order; consistency need only be enforced at stable points, "
      "yielding higher concurrency than per-message total order (§5.1, §6.1)");
  benchkit::measured(
      "wire cost of the stable-point protocol stays at one broadcast per "
      "op for every f̄, while total-order baselines pay ordering overhead "
      "on all ops; see coverage%% for the racing-sync caveat (§5.2)");
  return 0;
}

}  // namespace
}  // namespace cbc

int main() { return cbc::run(); }
