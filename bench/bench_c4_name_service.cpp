// C4 — Claim (§5.2): when dependency tracking is too expensive, the
// application-level protocol (context-carrying queries + discard) "induces
// more complexity ... but provides more asynchronism in execution of the
// protocol when inconsistencies occur infrequently".
//
// Sweep the update fraction and network jitter; report the query discard
// rate and the latency to answer a query under (a) the spontaneous
// causal protocol (answered locally, zero ordering delay) and (b) a
// totally-ordered registry where every query waits for serialization.
#include "apps/registry.h"
#include "appcons/name_service.h"
#include "baseline/total_replica.h"
#include "bench_common.h"
#include "common/sim_env.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cbc {
namespace {

using benchkit::Table;
using testkit::SimEnv;

constexpr std::size_t kMembers = 4;
constexpr int kOps = 200;

struct SpontResult {
  double discard_pct = 0;
  double answer_latency_us = 0;  // issuer-side
};

SpontResult run_spontaneous(double update_fraction, SimTime jitter,
                            std::uint64_t seed) {
  SimEnv::Config config;
  config.jitter_us = jitter;
  config.seed = seed;
  SimEnv env(config);
  const GroupView view = testkit::make_view(kMembers);
  std::vector<std::unique_ptr<NameServiceMember>> members;
  for (std::size_t i = 0; i < kMembers; ++i) {
    members.push_back(std::make_unique<NameServiceMember>(env.transport, view));
  }
  Rng rng(seed + 17);
  for (int op = 0; op < kOps; ++op) {
    const std::size_t who = rng.next_below(kMembers);
    if (rng.next_bool(update_fraction)) {
      members[who]->update("hot", "v" + std::to_string(op));
    } else {
      members[who]->query("hot", nullptr);
    }
    env.run_until(env.scheduler.now() +
                  static_cast<SimTime>(rng.next_below(800)));
  }
  env.run();
  std::uint64_t discarded = 0;
  std::uint64_t processed = 0;
  for (const auto& member : members) {
    discarded += member->stats().queries_discarded;
    processed += member->stats().queries_processed;
  }
  SpontResult result;
  result.discard_pct = processed == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(discarded) /
                                 static_cast<double>(processed);
  result.answer_latency_us = 0.0;  // answered from the local replica at issue
  return result;
}

double run_total_order_query_latency(double update_fraction, SimTime jitter,
                                     std::uint64_t seed) {
  SimEnv::Config config;
  config.jitter_us = jitter;
  config.seed = seed;
  SimEnv env(config);
  const GroupView view = testkit::make_view(kMembers);
  std::vector<std::unique_ptr<TotalReplicaNode<apps::Registry>>> nodes;
  for (std::size_t i = 0; i < kMembers; ++i) {
    nodes.push_back(std::make_unique<TotalReplicaNode<apps::Registry>>(
        env.transport, view));
  }
  Rng rng(seed + 17);
  Histogram latency;
  for (int op = 0; op < kOps; ++op) {
    const std::size_t who = rng.next_below(kMembers);
    if (rng.next_bool(update_fraction)) {
      nodes[who]->submit(apps::Registry::upd("hot", "v" + std::to_string(op)));
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(800)));
    } else {
      // A totally-ordered query must wait for its serialization slot; the
      // answer is available when the query is delivered at its issuer.
      const SimTime issued = env.scheduler.now();
      nodes[who]->submit(apps::Registry::qry("hot"));
      const std::uint64_t before = nodes[who]->member().stats().delivered;
      env.run_until(env.scheduler.now() +
                    static_cast<SimTime>(rng.next_below(800)));
      // Ensure delivery to measure (run to quiescence if still pending).
      if (nodes[who]->member().stats().delivered <= before) {
        env.run();
      }
      latency.add(static_cast<double>(env.scheduler.now() - issued));
    }
  }
  env.run();
  return latency.empty() ? 0.0 : latency.mean();
}

int run() {
  benchkit::banner("C4", "name service: context queries vs total order (§5.2)");
  Table table({"upd_fraction", "jitter_us", "discard%", "causal_qry_us",
               "totalorder_qry_us"});
  double calm_discard = 0;
  double hot_discard = 0;
  for (const double fraction : {0.05, 0.2, 0.5, 0.8}) {
    for (const SimTime jitter : {SimTime{1000}, SimTime{5000}}) {
      const SpontResult spont = run_spontaneous(fraction, jitter, 29);
      const double total_latency =
          run_total_order_query_latency(fraction, jitter, 29);
      table.row({benchkit::num(fraction), benchkit::num(static_cast<std::int64_t>(jitter)),
                 benchkit::num(spont.discard_pct, 1),
                 benchkit::num(spont.answer_latency_us),
                 benchkit::num(total_latency)});
      if (fraction == 0.05 && jitter == 1000) calm_discard = spont.discard_pct;
      if (fraction == 0.8 && jitter == 5000) hot_discard = spont.discard_pct;
    }
  }
  table.print();
  benchkit::claim(
      "application-level inconsistency handling adds complexity but more "
      "asynchronism when inconsistencies are infrequent: queries answer "
      "locally; only context-mismatched queries are discarded (§5.2)");
  benchkit::measured(
      "causal queries answer in ~0us vs the total-order round trip; "
      "discard rate " + benchkit::num(calm_discard, 1) +
      "% at 5% updates/low jitter rising to " + benchkit::num(hot_discard, 1) +
      "% at 80% updates/high jitter");
  return 0;
}

}  // namespace
}  // namespace cbc

int main() { return cbc::run(); }
