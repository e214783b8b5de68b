// Tests for ScopedOrderMember: eq. (5)'s on-demand total order over OSend.
#include <gtest/gtest.h>

#include <memory>

#include "common/recorder.h"
#include "common/sim_env.h"
#include "total/scoped_order.h"
#include "util/rng.h"

namespace cbc {
namespace {

using testkit::SimEnv;

struct ScopedGroup {
  ScopedGroup(Transport& transport, std::size_t n)
      : view(testkit::make_view(n)), app_recorders(n) {
    for (std::size_t i = 0; i < n; ++i) {
      // The recording layer keeps the OSend (wire) delivery order.
      auto wire = std::make_unique<testkit::RecordingLayer>(
          std::make_unique<OSendMember>(transport, view,
                                        [](const Delivery&) {}));
      wire_recorders.push_back(&wire->recorder());
      members.push_back(std::make_unique<ScopedOrderMember>(
          std::move(wire), app_recorders[i].tap()));
    }
  }
  std::vector<std::string> labels(std::size_t i) const {
    return delivered_labels(app_recorders[i].log());
  }
  GroupView view;
  std::vector<testkit::Recorder> app_recorders;  // application order
  std::vector<std::unique_ptr<ScopedOrderMember>> members;
  std::vector<const testkit::Recorder*> wire_recorders;  // owned by members
};

TEST(ScopedOrder, PlainCausalTrafficPassesThrough) {
  SimEnv env;
  ScopedGroup group(env.transport, 2);
  group.members[0]->send_causal("hello", {}, DepSpec::none());
  env.run();
  EXPECT_EQ(group.labels(1), (std::vector<std::string>{"hello"}));
}

TEST(ScopedOrder, ReservedLabelRejected) {
  SimEnv env;
  ScopedGroup group(env.transport, 2);
  EXPECT_THROW(group.members[0]->send_causal("@bad", {}, DepSpec::none()),
               InvalidArgument);
}

TEST(ScopedOrder, ScopedSetReleasedInIdenticalOrderEverywhere) {
  // The exact eq. (5) scenario: ASend({m1', m2'}, Occurs_After(Msg)).
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 5000;
    config.seed = seed;
    SimEnv env(config);
    ScopedGroup group(env.transport, 3);
    const ScopeId scope = group.members[0]->open_scope("Msg");
    env.run();  // ascendant reaches everyone
    // Two members submit spontaneously into the scope.
    group.members[1]->send_scoped(scope, "m1'", {});
    group.members[2]->send_scoped(scope, "m2'", {});
    env.run();
    group.members[0]->close_scope(scope, "lbl_d");
    env.run();
    // Every member: Msg first, then m1'/m2' in ONE deterministic order,
    // then the descendant.
    const auto reference = group.labels(0);
    ASSERT_EQ(reference.size(), 4u) << "seed " << seed;
    EXPECT_EQ(reference.front(), "Msg");
    EXPECT_EQ(reference.back(), "lbl_d");
    for (std::size_t i = 1; i < 3; ++i) {
      EXPECT_EQ(group.labels(i), reference) << "seed " << seed;
    }
  }
}

TEST(ScopedOrder, WireOrderMayDifferButAppOrderMatches) {
  // Underlying OSend logs may deliver m1'/m2' in different orders at
  // different members (they are concurrent on the wire); the app log must
  // still match. Find a seed demonstrating the wire divergence.
  bool wire_diverged = false;
  for (std::uint64_t seed = 1; seed <= 40 && !wire_diverged; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 6000;
    config.seed = seed;
    SimEnv env(config);
    ScopedGroup group(env.transport, 3);
    const ScopeId scope = group.members[0]->open_scope("a");
    env.run();
    group.members[1]->send_scoped(scope, "x", {});
    group.members[2]->send_scoped(scope, "y", {});
    env.run();
    group.members[0]->close_scope(scope, "d");
    env.run();
    // Wire order: compare raw OSend logs of members 1 and 2.
    const auto wire1 = delivered_labels(group.wire_recorders[1]->log());
    const auto wire2 = delivered_labels(group.wire_recorders[2]->log());
    wire_diverged = wire1 != wire2;
    // App order must agree regardless.
    EXPECT_EQ(group.labels(1), group.labels(2)) << "seed " << seed;
  }
  EXPECT_TRUE(wire_diverged);
}

TEST(ScopedOrder, MultipleSequentialScopes) {
  SimEnv env;
  ScopedGroup group(env.transport, 2);
  for (int round = 0; round < 3; ++round) {
    const ScopeId scope =
        group.members[0]->open_scope("open" + std::to_string(round));
    env.run();
    group.members[1]->send_scoped(scope, "w" + std::to_string(round), {});
    env.run();
    group.members[0]->close_scope(scope, "close" + std::to_string(round));
    env.run();
  }
  const auto labels = group.labels(1);
  ASSERT_EQ(labels.size(), 9u);
  EXPECT_EQ(labels[0], "open0");
  EXPECT_EQ(labels[1], "w0");
  EXPECT_EQ(labels[2], "close0");
  EXPECT_EQ(labels[8], "close2");
}

TEST(ScopedOrder, CausalTrafficInterleavesWithoutWaitingForScopes) {
  // An open scope must not delay unrelated causal traffic — that is the
  // whole point of paying for total order only where requested.
  SimEnv env;
  ScopedGroup group(env.transport, 2);
  const ScopeId scope = group.members[0]->open_scope("a");
  env.run();
  group.members[1]->send_scoped(scope, "held", {});
  group.members[0]->send_causal("urgent", {}, DepSpec::none());
  env.run();
  // "urgent" is delivered although the scope is still open and "held" is
  // parked.
  const auto labels = group.labels(1);
  EXPECT_NE(std::find(labels.begin(), labels.end(), "urgent"), labels.end());
  EXPECT_EQ(std::find(labels.begin(), labels.end(), "held"), labels.end());
  group.members[0]->close_scope(scope, "d");
  env.run();
  EXPECT_NE(std::find(group.labels(1).begin(), group.labels(1).end(), "held"),
            group.labels(1).end());
}

TEST(ScopedOrder, SubmitToUnknownOrClosedScopeRejected) {
  SimEnv env;
  ScopedGroup group(env.transport, 2);
  EXPECT_THROW(group.members[1]->send_scoped(ScopeId{0, 99}, "m", {}),
               InvalidArgument);
  const ScopeId scope = group.members[0]->open_scope("a");
  env.run();
  group.members[0]->close_scope(scope, "d");
  EXPECT_THROW(group.members[0]->send_scoped(scope, "late", {}),
               InvalidArgument);
  EXPECT_THROW(group.members[0]->close_scope(scope, "again"),
               InvalidArgument);
}

TEST(ScopedOrder, StragglerNotCoveredByCloseIsReleasedCausally) {
  // Member 1's submission races the close: the closer never saw it, so no
  // total-order promise — it must still be delivered (causally) at every
  // member, after the scope release there.
  sim::Scheduler scheduler;
  auto latency = std::make_unique<sim::MatrixLatency>(2, 1000, 0);
  latency->set(1, 0, 20000);  // member1 -> member0 very slow
  sim::SimNetwork network(scheduler, std::move(latency), {}, 1);
  SimTransport transport(network);
  ScopedGroup group(transport, 2);
  const ScopeId scope = group.members[0]->open_scope("a");
  scheduler.run();
  group.members[1]->send_scoped(scope, "straggler", {});  // slow to reach 0
  scheduler.run_until(scheduler.now() + 2000);
  group.members[0]->close_scope(scope, "d");  // closer never saw straggler
  scheduler.run();
  for (std::size_t i = 0; i < 2; ++i) {
    const auto labels = group.labels(i);
    EXPECT_NE(std::find(labels.begin(), labels.end(), "straggler"),
              labels.end())
        << "member " << i;
  }
}

// Property: many submitters, random scopes — app release order of covered
// messages identical at all members.
TEST(ScopedOrder, RandomizedScopesAgree) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 3000;
    config.seed = seed;
    SimEnv env(config);
    const std::size_t n = 4;
    ScopedGroup group(env.transport, n);
    Rng rng(seed * 5 + 1);
    for (int round = 0; round < 4; ++round) {
      const std::size_t opener = rng.next_below(n);
      const ScopeId scope = group.members[opener]->open_scope(
          "open" + std::to_string(round));
      env.run();
      const int submissions = 1 + static_cast<int>(rng.next_below(4));
      for (int s = 0; s < submissions; ++s) {
        group.members[rng.next_below(n)]->send_scoped(
            scope, "m" + std::to_string(round) + "." + std::to_string(s), {});
      }
      env.run();
      group.members[opener]->close_scope(scope,
                                         "close" + std::to_string(round));
      env.run();
    }
    const auto reference = group.labels(0);
    for (std::size_t i = 1; i < n; ++i) {
      EXPECT_EQ(group.labels(i), reference) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace cbc
