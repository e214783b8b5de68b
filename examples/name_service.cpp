// Distributed name service (paper §5.2): spontaneous registrations and
// resolutions with application-level inconsistency handling.
//
// Updates and queries carry NO ordering constraints — tracking causal
// dependencies in a large name-service group would be too expensive — so
// member registries may transiently diverge. Each query carries context
// (which updates its issuer had applied for the name); members that would
// answer differently detect the mismatch and DISCARD the query instead of
// returning a wrong answer.
#include <iostream>
#include <memory>
#include <vector>

#include "appcons/name_service.h"
#include "fault/chaos_transport.h"
#include "fault/fault_plan.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "transport/sim_transport.h"

int main() {
  using namespace cbc;

  sim::Scheduler scheduler;
  sim::SimNetwork network(
      scheduler, std::make_unique<sim::UniformJitterLatency>(1000, 0), 11);
  SimTransport wire(network);
  // One deliberately slow link (server 0 -> server 2: 25 ms instead of
  // 1 ms) creates the §5.2 interleaving: a query races ahead of the
  // update it depends on.
  fault::ChaosTransport::Options slow_link;
  slow_link.plan =
      fault::FaultPlan::parse("seed 11\nlink 0 2 delay 24000 24000\n");
  fault::ChaosTransport transport(wire, std::move(slow_link));

  const GroupView view(1, {0, 1, 2});
  std::vector<std::unique_ptr<NameServiceMember>> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<NameServiceMember>(transport, view));
  }

  // Server 0 registers a printer; the update reaches server 1 quickly but
  // crawls toward server 2.
  std::cout << "server0: upd(printer -> spool-a:631)\n";
  servers[0]->update("printer", "spool-a:631");
  scheduler.run_until(3000);

  // Server 1 resolves the name — its context says "I have seen 1 update".
  servers[1]->query("printer", [](const QueryOutcome& outcome) {
    std::cout << "server1 qry(printer) at issuer: "
              << (outcome.discarded ? "DISCARDED"
                                    : "ok -> " + outcome.value.value_or("<none>"))
              << "\n";
  });
  scheduler.run();

  std::cout << "\nPer-server §5.2 statistics:\n";
  for (int i = 0; i < 3; ++i) {
    const NameServiceStats& stats = servers[i]->stats();
    std::cout << "  server" << i << ": updates=" << stats.updates_applied
              << " queries=" << stats.queries_processed
              << " discarded=" << stats.queries_discarded << "\n";
  }
  std::cout
      << "\nServer 2 processed the query before the update arrived, saw a\n"
         "context mismatch (issuer had 1 update for 'printer', it had 0),\n"
         "and discarded the query rather than answering <none> — the\n"
         "paper's application-level consistency check in action.\n";

  const bool discarded_somewhere = servers[2]->stats().queries_discarded == 1;
  return discarded_somewhere ? 0 : 1;
}
