// FaultPlan parsing and ChaosTransport semantics: directive grammar and
// line-numbered rejection, most-specific-rule precedence, partition and
// crash-point windows, and the acceptance criterion for the whole fault
// subsystem — two runs of the same scenario under the same plan + seed
// replay byte-identical delivery schedules and fault decisions.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "causal/osend.h"
#include "common/sim_env.h"
#include "fault/chaos_transport.h"
#include "fault/fault_plan.h"
#include "group/group_view.h"
#include "transport/batching.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace cbc::fault {
namespace {

// ---------- Parsing ----------

TEST(FaultPlan, ParsesFullGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "# adversity for the three-node smoke\n"
      "seed 99\n"
      "link 0 1 drop 0.25 dup 0.1\n"
      "link * * delay 100 500 reorder 0.05\n"
      "partition 10000 5000 0,1|2\n"
      "crash 2 20000\n");
  EXPECT_EQ(plan.seed(), 99u);
  EXPECT_FALSE(plan.empty());
  ASSERT_NE(plan.rule_for(0, 1), nullptr);
  EXPECT_DOUBLE_EQ(plan.rule_for(0, 1)->drop, 0.25);
  EXPECT_DOUBLE_EQ(plan.rule_for(0, 1)->duplicate, 0.1);
  ASSERT_EQ(plan.partitions().size(), 1u);
  ASSERT_EQ(plan.crashes().size(), 1u);
  EXPECT_EQ(plan.crash_time(2), std::optional<SimTime>{20'000});
  EXPECT_EQ(plan.crash_time(0), std::nullopt);
}

TEST(FaultPlan, EmptyAndCommentOnlyPlansInjectNothing) {
  EXPECT_TRUE(FaultPlan().empty());
  const FaultPlan plan = FaultPlan::parse("# nothing\n\n  \t\nseed 7\n");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.seed(), 7u);
  EXPECT_EQ(plan.rule_for(0, 1), nullptr);
}

TEST(FaultPlan, RejectsMalformedInputWithLineNumbers) {
  EXPECT_THROW(FaultPlan::parse("bogus directive\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("seed\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("link 0\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("link 0 1 drop 1.5\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("link 0 1 drop\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("link 0 1 warp 0.5\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("link 0 1 delay 500 100\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("partition 0 1000 0,1\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("partition 0 1000 0,1|\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("crash 2\n"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("crash 2 5 extra\n"), InvalidArgument);
  // Numbers are whole tokens in range: no sign (-5 made node 2 dead from
  // t=0), no wrap past a node id (2^32 + 1 named node 1), no NaN and no
  // suffix (7x read seed 7, 10ms read 10 µs).
  for (const char* text :
       {"crash 2 -5\n", "link 4294967297 0 drop 0.5\n",
        "link 0 1 drop nan\n", "seed 7x\n", "partition -1 100 0|1\n",
        "link 0 1 delay 5 10ms\n", "link 0 1 dup -0\n",
        "link 0 1 reorder 0.5x\n", "partition 0 100 0|4294967295\n"}) {
    EXPECT_THROW(FaultPlan::parse(text), InvalidArgument) << text;
  }
  // The reported line number names the offender, not line 1.
  try {
    FaultPlan::parse("seed 1\nlink 0 1 drop nine\n");
    FAIL() << "malformed drop accepted";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
}

TEST(FaultPlan, MostSpecificLinkRuleWins) {
  const FaultPlan plan = FaultPlan::parse(
      "link * * drop 0.5\n"
      "link 0 * drop 0.3\n"
      "link * 1 drop 0.2\n"
      "link 0 1 drop 0.1\n");
  EXPECT_DOUBLE_EQ(plan.rule_for(0, 1)->drop, 0.1);  // exact pair
  EXPECT_DOUBLE_EQ(plan.rule_for(0, 2)->drop, 0.3);  // from-match
  EXPECT_DOUBLE_EQ(plan.rule_for(2, 1)->drop, 0.2);  // to-match
  EXPECT_DOUBLE_EQ(plan.rule_for(2, 3)->drop, 0.5);  // catch-all
  // A quiet exact rule overrides a noisy wildcard: that is how a plan
  // protects one link while hammering the rest.
  const FaultPlan carve_out = FaultPlan::parse(
      "link * * drop 0.9\n"
      "link 0 2\n");
  EXPECT_TRUE(carve_out.rule_for(0, 2)->quiet());
  EXPECT_DOUBLE_EQ(carve_out.rule_for(0, 1)->drop, 0.9);
}

TEST(FaultPlan, PartitionWindowsAndGroups) {
  const FaultPlan plan = FaultPlan::parse("partition 1000 500 0,1|2\n");
  // Inside the window, only cross-group pairs are cut — both directions.
  EXPECT_TRUE(plan.partitioned(0, 2, 1000));
  EXPECT_TRUE(plan.partitioned(2, 1, 1499));
  EXPECT_FALSE(plan.partitioned(0, 1, 1200));  // same group
  EXPECT_FALSE(plan.partitioned(0, 3, 1200));  // unlisted node unaffected
  // Half-open window [start, start + duration).
  EXPECT_FALSE(plan.partitioned(0, 2, 999));
  EXPECT_FALSE(plan.partitioned(0, 2, 1500));
}

// ---------- Determinism over the simulated transport ----------

/// One complete lossy scenario: a 2-member causal stack (reliability on)
/// over Batching over Chaos over the deterministic simulator. The sender
/// FIFO-chains every broadcast, so delivery order is fully pinned; the
/// returned labels + ChaosStats capture the entire observable schedule.
struct ChaosRun {
  std::vector<std::string> delivered;
  ChaosTransport::ChaosStats stats;
};

ChaosRun run_chaos_chain(const std::string& plan_text,
                         std::size_t messages) {
  testkit::SimEnv env;  // quiet simulator: all adversity comes from the plan
  ChaosTransport::Options options;
  options.plan = FaultPlan::parse(plan_text);
  ChaosTransport chaos(env.transport, std::move(options));
  BatchingTransport batching(chaos);
  GroupView view = testkit::make_view(2);
  OSendMember::Options member_options;
  member_options.reliability.enabled = true;
  ChaosRun run;
  OSendMember sender(batching, view, [](const Delivery&) {},
                     member_options);
  OSendMember receiver(
      batching, view,
      [&run](const Delivery& delivery) {
        run.delivered.push_back(delivery.label());
      },
      member_options);
  MessageId previous = MessageId::null();
  for (std::size_t i = 0; i < messages; ++i) {
    Writer payload;
    payload.u64(i);
    previous = sender.broadcast("m" + std::to_string(i), payload.take(),
                                DepSpec::after(previous));
  }
  env.run();
  run.stats = chaos.stats();
  return run;
}

TEST(ChaosTransport, SamePlanAndSeedReplaysByteIdentically) {
  // The PR's acceptance criterion: two independent runs of the same
  // scenario under the same plan + seed produce the identical delivery
  // schedule AND the identical per-category fault decisions.
  const std::string plan =
      "seed 1234\n"
      "link * * drop 0.15 dup 0.1 delay 200 900 reorder 0.1\n";
  const ChaosRun first = run_chaos_chain(plan, 150);
  const ChaosRun second = run_chaos_chain(plan, 150);
  ASSERT_EQ(first.delivered.size(), 150u) << "reliability failed to heal";
  EXPECT_EQ(first.delivered, second.delivered);
  EXPECT_EQ(first.stats.drops, second.stats.drops);
  EXPECT_EQ(first.stats.duplicates, second.stats.duplicates);
  EXPECT_EQ(first.stats.delays, second.stats.delays);
  EXPECT_EQ(first.stats.reorders, second.stats.reorders);
  EXPECT_EQ(first.stats.forwarded, second.stats.forwarded);
  EXPECT_GT(first.stats.drops, 0u);
  EXPECT_GT(first.stats.duplicates, 0u);
  EXPECT_GT(first.stats.delays, 0u);

  // A different seed must explore a different schedule: the plan text is
  // the contract, the seed is the dice.
  const ChaosRun reseeded = run_chaos_chain(
      "seed 4321\n"
      "link * * drop 0.15 dup 0.1 delay 200 900 reorder 0.1\n",
      150);
  EXPECT_NE(reseeded.stats.drops, first.stats.drops);
}

TEST(ChaosTransport, PartitionDropsCrossGroupFramesThenHeals) {
  // Partition 0|1 for the first 50ms of virtual time: nothing crosses,
  // the reliability layer retransmits, and after the heal every message
  // arrives exactly once in order.
  const ChaosRun run = run_chaos_chain(
      "seed 5\n"
      "partition 0 50000 0|1\n",
      20);
  ASSERT_EQ(run.delivered.size(), 20u);
  for (std::size_t i = 0; i < run.delivered.size(); ++i) {
    EXPECT_EQ(run.delivered[i], "m" + std::to_string(i));
  }
  EXPECT_GT(run.stats.partition_drops, 0u);
}

TEST(ChaosTransport, CrashPointSilencesNodeAndFiresLocalHook) {
  testkit::SimEnv env;
  ChaosTransport::Options options;
  options.plan = FaultPlan::parse("crash 1 5000\n");
  options.local_node = 1;
  bool crash_fired = false;
  options.on_crash = [&crash_fired] { crash_fired = true; };
  ChaosTransport chaos(env.transport, std::move(options));
  std::size_t node1_received = 0;
  chaos.add_endpoint([](NodeId, const WireFrame&) {});
  chaos.add_endpoint(
      [&node1_received](NodeId, const WireFrame&) { node1_received += 1; });

  const auto send_one = [&chaos] {
    Writer writer;
    writer.u64(0);
    chaos.send(0, 1, writer.take_shared());
  };
  send_one();             // t=0: before the crash, delivered
  env.run_until(10'000);  // past the crash point
  const std::size_t before_crash = node1_received;
  EXPECT_EQ(before_crash, 1u);
  send_one();  // t=10ms: node 1 is dead, frame dropped
  env.run();
  EXPECT_EQ(node1_received, before_crash);
  EXPECT_GT(chaos.stats().crash_drops, 0u);
  EXPECT_TRUE(crash_fired);
}

}  // namespace
}  // namespace cbc::fault
