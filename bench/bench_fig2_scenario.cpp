// F2 — Figure 2: causal broadcast scenario R(M) = mk -> ||{m1',m2'} -> m3'.
//
// The paper's point: while the concurrent messages m1', m2' are in flight,
// entities may hold DIFFERENT views of the shared state; when the
// synchronization message m3' (causally after both) is delivered, all
// entities agree again. We run the exact scenario over many seeds,
// printing each member's delivery order, whether intermediate views
// diverged, and whether the view at m3' agreed — plus the dependency
// graph in DOT form.
#include <set>

#include "apps/counter.h"
#include "bench_common.h"
#include "causal/osend.h"
#include "common/group_fixture.h"

namespace cbc {
namespace {

using benchkit::Table;
using testkit::Group;
using testkit::SimEnv;

std::string order_string(const std::vector<Delivery>& log) {
  std::string out;
  for (const Delivery& delivery : log) {
    if (!out.empty()) out += " ";
    out += delivery.label();
  }
  return out;
}

int run() {
  benchkit::banner("F2", "Figure 2 — mk -> ||{m1',m2'} -> m3'");

  Table table({"seed", "order@a_i", "order@a_j", "order@a_k",
               "intermediate_diverged", "agree_at_m3"});
  int diverged_count = 0;
  int agree_count = 0;
  const int seeds = 12;
  std::string dot;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 3000;
    config.seed = seed;
    SimEnv env(config);
    Group<OSendMember> group(env.transport, 3);

    // mk = set(10) from a_k; m1' = inc(1), m2' = inc(2) from a_i;
    // m3' = rd from a_j.
    auto payload = [](std::int64_t v) {
      Writer writer;
      writer.i64(v);
      return writer.take();
    };
    const MessageId mk = group[2].osend("mk=set(10)", payload(10), DepSpec::none());
    env.run();
    const MessageId m1 = group[0].osend("m1'=inc(1)", payload(1), DepSpec::after(mk));
    const MessageId m2 = group[0].osend("m2'=inc(2)", payload(2), DepSpec::after(mk));
    // Let the concurrent messages race partway, then send the sync.
    env.run_until(env.scheduler.now() + 1500);
    group[1].osend("m3'=rd", {}, DepSpec::after_all({m1, m2}));
    env.run();

    // Replay each member's log onto a counter, capturing the intermediate
    // view right before m3' and the final view at m3'.
    std::vector<std::int64_t> at_sync(3);
    std::set<std::string> prefixes;
    for (std::size_t i = 0; i < 3; ++i) {
      apps::Counter counter;
      std::string prefix;
      for (const Delivery& delivery : group.log(i)) {
        if (delivery.label() == "m3'=rd") {
          at_sync[i] = counter.value();
          break;
        }
        Reader reader(delivery.payload());
        const std::string kind =
            delivery.label().find("set") != std::string::npos ? "set" : "inc";
        counter.apply(kind, reader);
        prefix += delivery.label() + ";";
      }
      prefixes.insert(prefix);
    }
    const bool diverged = prefixes.size() > 1;
    const bool agree = at_sync[0] == at_sync[1] && at_sync[1] == at_sync[2];
    diverged_count += diverged ? 1 : 0;
    agree_count += agree ? 1 : 0;
    table.row({benchkit::num(seed), order_string(group.log(0)),
               order_string(group.log(1)), order_string(group.log(2)),
               diverged ? "yes" : "no", agree ? "yes" : "no"});
    if (seed == 1) {
      dot = group.graph(0).to_dot("fig2");
    }
  }
  table.print();

  std::cout << "\nDependency graph R(M) (DOT, identical at all members):\n"
            << dot;

  benchkit::claim(
      "views may differ while ||{m1',m2'} are processed in different "
      "sequences, but when m3' (causally after both) is delivered, a_i, "
      "a_j, a_k have the same view — a synchronization point (§2.2)");
  benchkit::measured(
      "agreement at m3' in " + std::to_string(agree_count) + "/" +
      std::to_string(seeds) + " runs; intermediate orders diverged in " +
      std::to_string(diverged_count) + "/" + std::to_string(seeds) + " runs");
  return agree_count == seeds ? 0 : 1;
}

}  // namespace
}  // namespace cbc

int main() { return cbc::run(); }
