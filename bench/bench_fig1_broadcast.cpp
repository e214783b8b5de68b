// F1 — Figure 1: "Message exchanges to access shared data".
//
// One entity updates the shared data; the broadcast facility makes the
// access message visible to every entity. This bench reproduces the
// figure as a delivery trace (who saw VAL, when) and sweeps the group
// size to show the broadcast fan-out cost growing linearly.
#include "apps/counter.h"
#include "bench_common.h"
#include "causal/osend.h"
#include "common/group_fixture.h"

namespace cbc {
namespace {

using benchkit::Table;
using testkit::Group;
using testkit::SimEnv;

void trace_figure() {
  benchkit::banner("F1", "Figure 1 — a data access message seen by all entities");
  SimEnv::Config config;
  config.base_latency_us = 1000;
  config.jitter_us = 500;
  config.seed = 1;
  SimEnv env(config);
  const std::size_t n = 5;
  Group<OSendMember> group(env.transport, n);

  // Entity 0 writes VAL = 42 into the shared data.
  Writer payload;
  payload.i64(42);
  group[0].osend("write(VAL)", payload.take(), DepSpec::none());
  env.run();

  Table table({"entity", "message", "VAL", "delivered_at_us"});
  for (std::size_t i = 0; i < n; ++i) {
    const Delivery& delivery = group.log(i).at(0);
    Reader reader(delivery.payload());
    table.row({"a_" + std::to_string(i), delivery.label(),
               benchkit::num(reader.i64()),
               benchkit::num(static_cast<std::int64_t>(delivery.delivered_at))});
  }
  table.print();
}

void sweep_group_size() {
  std::cout << "\nBroadcast fan-out cost vs group size (one write):\n";
  Table table({"group_size", "wire_msgs", "bytes", "last_delivery_us"});
  for (const std::size_t n : {2, 4, 8, 16, 32}) {
    SimEnv::Config config;
    config.jitter_us = 500;
    config.seed = 7;
    SimEnv env(config);
    Group<OSendMember> group(env.transport, n);
    Writer payload;
    payload.i64(42);
    group[0].osend("write(VAL)", payload.take(), DepSpec::none());
    env.run();
    SimTime last = 0;
    for (std::size_t i = 0; i < n; ++i) {
      last = std::max(last, group.log(i).at(0).delivered_at);
    }
    table.row({benchkit::num(static_cast<std::uint64_t>(n)),
               benchkit::num(env.network.stats().sent),
               benchkit::num(env.network.stats().bytes),
               benchkit::num(static_cast<std::int64_t>(last))});
  }
  table.print();
}

}  // namespace
}  // namespace cbc

int main() {
  cbc::trace_figure();
  cbc::sweep_group_size();
  cbc::benchkit::claim(
      "a data access message is seen by ALL entities concerned with the "
      "data (Fig. 1)");
  cbc::benchkit::measured(
      "every member of the group delivers the write exactly once; wire "
      "cost grows as N-1 unicasts per broadcast");
  return 0;
}
