// Tests for the §6.1 replicated data access protocol: FrontEndManager,
// ReplicaNode, ReplicaGroup — agreement at stable points.
#include <gtest/gtest.h>

#include "apps/counter.h"
#include "apps/registry.h"
#include "common/consistency_check.h"
#include "common/recorder.h"
#include "common/sim_env.h"
#include "replica/replica_group.h"
#include "util/rng.h"

namespace cbc {
namespace {

using testkit::ConsistencyVerdict;
using testkit::ReplicaRecorder;
using testkit::SimEnv;
using testkit::record_replicas;

// ---------- FrontEndManager label/dependency generation ----------

TEST(FrontEnd, CommutativeOpsOrderAfterLastSyncOnly) {
  SimEnv env;
  ReplicaGroup<apps::Counter> group(env.transport, 2, apps::Counter::spec());
  auto& node = group.node(0);
  // The front-end tests inspect the dependencies it generated in the graph
  // of node 0's recorded deliveries.
  ReplicaRecorder<apps::Counter> recorded(node);
  const MessageId rd = node.submit(apps::Counter::rd());
  env.run();
  const MessageId inc1 = node.submit(apps::Counter::inc(1));
  const MessageId inc2 = node.submit(apps::Counter::inc(1));
  // Both commutative requests depend exactly on the sync message — they
  // stay concurrent with each other.
  const MessageGraph graph = recorded.graph();
  EXPECT_EQ(graph.direct_deps(inc1), std::vector<MessageId>{rd});
  EXPECT_EQ(graph.direct_deps(inc2), std::vector<MessageId>{rd});
  EXPECT_TRUE(graph.concurrent(inc1, inc2));
}

TEST(FrontEnd, SyncOpCoversOpenCommutativeSet) {
  SimEnv env;
  ReplicaGroup<apps::Counter> group(env.transport, 2, apps::Counter::spec());
  auto& node = group.node(0);
  ReplicaRecorder<apps::Counter> recorded(node);
  const MessageId inc1 = node.submit(apps::Counter::inc(1));
  const MessageId inc2 = node.submit(apps::Counter::inc(2));
  env.run();
  const MessageId rd = node.submit(apps::Counter::rd());
  const auto deps = recorded.graph().direct_deps(rd);
  EXPECT_EQ(deps.size(), 2u);
  EXPECT_TRUE(recorded.graph().reaches(inc1, rd));
  EXPECT_TRUE(recorded.graph().reaches(inc2, rd));
}

TEST(FrontEnd, SyncWithoutOpenSetDependsOnPreviousSync) {
  SimEnv env;
  ReplicaGroup<apps::Counter> group(env.transport, 2, apps::Counter::spec());
  auto& node = group.node(0);
  ReplicaRecorder<apps::Counter> recorded(node);
  const MessageId rd1 = node.submit(apps::Counter::rd());
  env.run();
  const MessageId rd2 = node.submit(apps::Counter::rd());
  EXPECT_EQ(recorded.graph().direct_deps(rd2),
            std::vector<MessageId>{rd1});
}

TEST(FrontEnd, ObservesRemoteTrafficIntoCidSet) {
  SimEnv env;
  ReplicaGroup<apps::Counter> group(env.transport, 2, apps::Counter::spec());
  ReplicaRecorder<apps::Counter> recorded(group.node(0));
  const MessageId remote_inc = group.node(1).submit(apps::Counter::inc(5));
  env.run();
  // Node 0's front end saw node 1's commutative request; node 0's next
  // sync op must cover it.
  const MessageId rd = group.node(0).submit(apps::Counter::rd());
  EXPECT_TRUE(recorded.graph().reaches(remote_inc, rd));
  EXPECT_EQ(group.node(0).front_end().c_submitted(), 0u);
  EXPECT_EQ(group.node(0).front_end().nc_submitted(), 1u);
}

// ---------- The paper's cycle (§6.1) and agreement at stable points ----

TEST(Replica, SingleNodeCycleProducesExpectedValue) {
  SimEnv env;
  ReplicaGroup<apps::Counter> group(env.transport, 3, apps::Counter::spec());
  auto& node = group.node(0);
  node.submit(apps::Counter::inc(4));
  node.submit(apps::Counter::dec(1));
  node.submit(apps::Counter::rd());
  env.run();
  EXPECT_TRUE(group.states_agree());
  EXPECT_TRUE(group.stable_states_agree());
  EXPECT_EQ(group.node(2).state().value(), 3);
  EXPECT_EQ(group.node(1).last_stable_state()->value(), 3);
}

TEST(Replica, DeferredReadReturnsAgreedValueAtStablePoint) {
  SimEnv::Config config;
  config.jitter_us = 3000;
  config.seed = 7;
  SimEnv env(config);
  ReplicaGroup<apps::Counter> group(env.transport, 3, apps::Counter::spec());
  group.node(0).submit(apps::Counter::inc(10));
  group.node(1).submit(apps::Counter::dec(4));
  env.run();

  std::vector<std::int64_t> observed;
  std::vector<std::uint64_t> cycles;
  for (std::size_t i = 0; i < 3; ++i) {
    group.node(i).read_at_next_stable(
        [&](const apps::Counter& state, const StablePoint& point) {
          observed.push_back(state.value());
          cycles.push_back(point.cycle);
        });
  }
  // A sync operation from any member closes the cycle everywhere.
  group.node(2).submit(apps::Counter::rd());
  env.run();
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_EQ(observed[0], 6);
  EXPECT_EQ(observed[1], 6);
  EXPECT_EQ(observed[2], 6);
  EXPECT_EQ(cycles, (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(Replica, SubmitWithResultObservesSerializationPoint) {
  SimEnv env;
  ReplicaGroup<apps::Counter> group(env.transport, 2, apps::Counter::spec());
  group.node(0).submit(apps::Counter::inc(7));
  env.run();
  std::optional<std::int64_t> read_value;
  group.node(1).submit_with_result(
      apps::Counter::rd(),
      [&](const apps::Counter& state) { read_value = state.value(); });
  env.run();
  ASSERT_TRUE(read_value.has_value());
  EXPECT_EQ(*read_value, 7);
  // The read's value equals every member's stable snapshot.
  EXPECT_EQ(group.node(0).last_stable_state()->value(), 7);
}

TEST(Replica, StableHistoryAgreesAcrossMembersWithCleanCycles) {
  // Drive the exact cycle structure rqst_nc(r-1) -> ||{rqst_c} ->
  // rqst_nc(r) with quiescence before each sync op, under jitter: the
  // snapshots at every stable point must agree member-by-member.
  SimEnv::Config config;
  config.jitter_us = 4000;
  config.seed = 17;
  SimEnv env(config);
  ReplicaGroup<apps::Counter> group(env.transport, 4, apps::Counter::spec());
  const auto recorders = record_replicas(group);
  Rng rng(99);
  std::int64_t expected = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int k = 0; k < 5; ++k) {
      const std::size_t submitter = rng.next_below(4);
      const std::int64_t delta = rng.next_in(-3, 3);
      expected += delta;
      if (delta >= 0) {
        group.node(submitter).submit(apps::Counter::inc(delta));
      } else {
        group.node(submitter).submit(apps::Counter::dec(-delta));
      }
    }
    env.run();  // commutative phase settles
    group.node(rng.next_below(4)).submit(apps::Counter::rd());
    env.run();
  }
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(recorders[i]->states().size(), 6u) << "member " << i;
    for (const StablePoint& point : recorders[i]->points()) {
      EXPECT_TRUE(point.coverage_complete);
    }
    EXPECT_EQ(recorders[i]->states(), recorders[0]->states());
  }
  EXPECT_EQ(group.node(0).state().value(), expected);
}

// Property test: writers race freely (no barriers); a single reader issues
// sync ops at random times. Final states agree; and for every cycle whose
// coverage was complete at ALL members, the per-cycle snapshots agree.
class ReplicaRacingWorkload : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReplicaRacingWorkload, AgreementHoldsWhereCoverageComplete) {
  const std::uint64_t seed = GetParam();
  SimEnv::Config config;
  config.jitter_us = 5000;
  config.seed = seed;
  SimEnv env(config);
  const std::size_t n = 4;
  ReplicaGroup<apps::Counter> group(env.transport, n, apps::Counter::spec());
  const auto recorders = record_replicas(group);
  Rng rng(seed * 31 + 5);
  std::int64_t expected = 0;
  for (int step = 0; step < 60; ++step) {
    const std::size_t who = rng.next_below(n);
    if (who == 0 && rng.next_bool(0.3)) {
      // Single reader: node 0. Half the reads are issued into a quiet
      // network (clean cycle, coverage complete everywhere), half race
      // with in-flight writes (coverage may be incomplete somewhere).
      if (rng.next_bool(0.5)) {
        env.run();
      }
      group.node(0).submit(apps::Counter::rd());
    } else {
      const std::int64_t delta = rng.next_in(1, 4);
      expected += delta;
      group.node(who).submit(apps::Counter::inc(delta));
    }
    env.run_until(env.scheduler.now() +
                  static_cast<SimTime>(rng.next_below(2500)));
  }
  env.run();
  // Two back-to-back quiesced reads: the first flushes any straggling
  // cycle attribution, the second is then guaranteed coverage-complete at
  // every member (its open set is empty everywhere).
  group.node(0).submit(apps::Counter::rd());
  env.run();
  group.node(0).submit(apps::Counter::rd());
  env.run();

  // All operations delivered everywhere: final values agree.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(group.node(i).state().value(), expected) << "seed " << seed;
  }
  // Sync ops all come from node 0, so every member sees the same cycle
  // sequence; where coverage was complete at all members, snapshots agree.
  const std::size_t cycles = recorders[0]->points().size();
  for (std::size_t i = 1; i < n; ++i) {
    ASSERT_EQ(recorders[i]->points().size(), cycles);
  }
  std::size_t agreed_cycles = 0;
  for (std::size_t c = 0; c < cycles; ++c) {
    bool covered_everywhere = true;
    for (std::size_t i = 0; i < n; ++i) {
      const StablePoint& point = recorders[i]->points()[c];
      EXPECT_EQ(point.sync_message, recorders[0]->points()[c].sync_message);
      covered_everywhere &= point.coverage_complete;
    }
    if (covered_everywhere) {
      ++agreed_cycles;
      for (std::size_t i = 1; i < n; ++i) {
        EXPECT_EQ(recorders[i]->states()[c], recorders[0]->states()[c])
            << "cycle " << c << " seed " << seed;
      }
    }
  }
  // The workload is racy, but at least some cycles should be clean.
  if (cycles > 0) {
    EXPECT_GT(agreed_cycles, 0u) << "seed " << seed;
  }

  // The oracle must reach the same verdict.
  const ConsistencyVerdict verdict = check_stable_points(recorders);
  EXPECT_TRUE(verdict.consistent) << verdict.problem << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaRacingWorkload,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Replica, NoneCommutativeSpecMakesEveryMessageAStablePoint) {
  SimEnv env;
  ReplicaGroup<apps::Counter> group(env.transport, 2,
                                    CommutativitySpec::none_commutative());
  const auto recorders = record_replicas(group);
  group.node(0).submit(apps::Counter::inc(1));
  group.node(0).submit(apps::Counter::inc(1));
  env.run();
  EXPECT_EQ(recorders[1]->points().size(), 2u);
  EXPECT_EQ(recorders[1]->states().size(), 2u);
}

TEST(Replica, RegistryStateMachineWorksThroughProtocol) {
  SimEnv env;
  ReplicaGroup<apps::Registry> group(env.transport, 3, apps::Registry::spec());
  const auto recorders = record_replicas(group);
  group.node(0).submit(apps::Registry::upd("svc", "host-1"));
  env.run();
  group.node(1).submit(apps::Registry::qry("svc"));
  env.run();
  group.node(2).submit(apps::Registry::upd("svc", "host-2"));
  env.run();
  EXPECT_TRUE(group.states_agree());
  EXPECT_EQ(group.node(0).state().lookup("svc"), "host-2");
  // upd is non-commutative: each one closed a cycle.
  EXPECT_EQ(recorders[0]->points().size(), 2u);
}

TEST(Replica, DefaultNodeKeepsOnlyTheLastStableState) {
  SimEnv env;
  ReplicaGroup<apps::Counter> group(env.transport, 3, apps::Counter::spec());
  for (int cycle = 0; cycle < 20; ++cycle) {
    group.node(1).submit(apps::Counter::inc(1));
    group.node(2).submit(apps::Counter::inc(1));
    env.run();
    group.node(0).submit(apps::Counter::rd());
    env.run();
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const ReplicaNode<apps::Counter>& node = group.node(i);
    EXPECT_EQ(node.detector().cycles(), 20u) << "member " << i;
    ASSERT_TRUE(node.detector().last().has_value()) << "member " << i;
    EXPECT_EQ(node.detector().last()->cycle, 20u) << "member " << i;
    EXPECT_EQ(node.stable_states(), 1u) << "member " << i;
    EXPECT_EQ(node.last_stable_state()->value(), 40) << "member " << i;
  }
  EXPECT_TRUE(group.stable_states_agree());
  // Recorders attached after the cycles closed hold none of them: the
  // per-cycle oracle refuses rather than passing vacuously.
  const auto late_recorders = record_replicas(group);
  const ConsistencyVerdict verdict = check_stable_points(late_recorders);
  EXPECT_FALSE(verdict.consistent);
}

TEST(Replica, GroupValidation) {
  SimEnv env;
  EXPECT_THROW(
      ReplicaGroup<apps::Counter>(env.transport, 0, apps::Counter::spec()),
      InvalidArgument);
  ReplicaGroup<apps::Counter> group(env.transport, 2, apps::Counter::spec());
  EXPECT_THROW((void)group.node(5), InvalidArgument);
  // A second group over the same transport must be rejected.
  EXPECT_THROW(
      ReplicaGroup<apps::Counter>(env.transport, 2, apps::Counter::spec()),
      InvalidArgument);
}

TEST(Replica, WorksOverLossyNetworkWithReliability) {
  SimEnv::Config config;
  config.drop_probability = 0.25;
  config.jitter_us = 2000;
  config.seed = 13;
  SimEnv env(config);
  typename ReplicaNode<apps::Counter>::Options options;
  options.member.reliability = {.control_interval_us = 3000, .enabled = true};
  ReplicaGroup<apps::Counter> group(env.transport, 3, apps::Counter::spec(),
                                    options);
  group.node(0).submit(apps::Counter::inc(5));
  group.node(1).submit(apps::Counter::inc(6));
  env.run();
  group.node(2).submit(apps::Counter::rd());
  env.run();
  EXPECT_TRUE(group.states_agree());
  EXPECT_EQ(group.node(0).state().value(), 11);
  EXPECT_TRUE(group.stable_states_agree());
}

}  // namespace
}  // namespace cbc
