// Quickstart: a replicated counter with causal broadcasting and
// stable-point reads, on the deterministic simulator.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/example_quickstart
//
// What it shows:
//  1. Assemble the stack: discrete-event scheduler -> simulated network
//     -> SimTransport -> a ReplicaGroup of three counter replicas.
//  2. Submit commutative operations (inc/dec) from different members —
//     they are broadcast with OSend and may be applied in different
//     orders at different replicas.
//  3. Submit a read. The §6.1 front-end manager orders it after every
//     open commutative request, so its delivery closes the causal
//     activity: a *stable point* where every replica holds the same
//     value. The deferred read returns that agreed value.
#include <iostream>
#include <memory>

#include "apps/counter.h"
#include "common/recorder.h"
#include "replica/replica_group.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "transport/sim_transport.h"

int main() {
  using namespace cbc;

  // --- 1. The simulated environment: 1ms links with 3ms jitter, so the
  //        network aggressively reorders messages.
  sim::Scheduler scheduler;
  sim::SimNetwork network(scheduler,
                          std::make_unique<sim::UniformJitterLatency>(1000, 3000),
                          /*seed=*/2024);
  SimTransport transport(network);

  // --- 2. Three replicas of an integer counter. Counter::spec() tells the
  //        protocol that inc/dec are commutative and rd/set are sync ops.
  //        Replica 0's deliveries are recorded outside the protocol so
  //        step 5 can print the dependency graph they describe.
  ReplicaGroup<apps::Counter> group(transport, 3, apps::Counter::spec());
  testkit::ReplicaRecorder<apps::Counter> recorded(group.node(0));

  // --- 3. Commutative traffic from different members (concurrent!).
  group.node(0).submit(apps::Counter::inc(5));
  group.node(1).submit(apps::Counter::inc(10));
  group.node(2).submit(apps::Counter::dec(3));
  scheduler.run();  // let the broadcasts propagate

  std::cout << "After the commutative burst, every replica already agrees\n"
            << "(all ops delivered; different orders would still commute):\n";
  for (std::size_t i = 0; i < 3; ++i) {
    std::cout << "  replica " << i << ": " << group.node(i).state().to_string()
              << "\n";
  }

  // --- 4. A deferred read: fires at the next stable point with the agreed
  //        value, identical at every member.
  for (std::size_t i = 0; i < 3; ++i) {
    group.node(i).read_at_next_stable(
        [i](const apps::Counter& counter, const StablePoint& point) {
          std::cout << "  replica " << i << " reads " << counter.value()
                    << " at stable point (cycle " << point.cycle
                    << ", sync msg " << point.sync_message.to_string()
                    << ", coverage "
                    << (point.coverage_complete ? "complete" : "INCOMPLETE")
                    << ")\n";
        });
  }

  // Any member's non-commutative operation closes the causal activity.
  std::cout << "\nSubmitting the sync read (closes the causal activity):\n";
  group.node(1).submit(apps::Counter::rd());
  scheduler.run();

  // --- 5. The dependency graph R(M) is the same at every member; print it.
  std::cout << "\nObserved dependency graph (DOT):\n"
            << recorded.graph().to_dot("quickstart");

  std::cout << "Value at every replica: " << group.node(0).state().value()
            << " " << group.node(1).state().value() << " "
            << group.node(2).state().value() << " — expected 12\n";
  return group.node(0).state().value() == 12 ? 0 : 1;
}
