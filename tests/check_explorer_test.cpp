// Schedule-permutation exploration: the paper's invariants must hold on
// EVERY delivery interleaving, not just the ones a seeded sim happens to
// produce. Three scenarios (OSend dependency DAG, ASend deterministic
// merge, stable-point activity) are explored exhaustively up to a budget
// plus seeded random walks — several hundred distinct interleavings each,
// >1000 across the suite — with the InvariantChecker attached to every
// member. A deliberately bugged discipline (dependencies ignored) proves
// the harness actually detects ordering violations and minimizes the
// failing schedule.

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <vector>

#include "causal/osend.h"
#include "check/invariant_checker.h"
#include "check/schedule_explorer.h"
#include "common/recorder.h"
#include "common/sim_env.h"
#include "obs/metrics.h"
#include "total/asend.h"
#include "util/serde.h"

namespace cbc {
namespace {

using check::ExplorerOptions;
using check::ExplorerResult;
using check::InvariantChecker;
using check::InvariantMonitor;
using check::ScheduleExplorer;

ExplorerOptions default_options() {
  ExplorerOptions options;
  options.max_exhaustive_schedules = 400;
  options.random_schedules = 50;
  options.seed = 7;
  return options;
}

// ---------- scenario 1: OSend Occurs_After DAG ----------
//
// a (member 0) and d (member 2) are concurrent roots; b is broadcast by
// member 1 in reaction to delivering a (deps {a}); c by member 2 in
// reaction to delivering b (deps {a, b}). Every interleaving must respect
// the declared DAG at every member.
class OSendDagScenario final : public check::Scenario {
 public:
  explicit OSendDagScenario(Transport& transport)
      : view_(testkit::make_view(3)) {
    for (std::size_t i = 0; i < 3; ++i) {
      checkers_.push_back(monitor_.attach(std::make_unique<OSendMember>(
          transport, view_, [](const Delivery&) {})));
    }
    checkers_[1]->set_deliver([this](const Delivery& delivery) {
      if (delivery.label() == "a" && !sent_b_) {
        sent_b_ = true;
        checkers_[1]->broadcast("b", {}, DepSpec::after(delivery.id));
      }
    });
    checkers_[2]->set_deliver([this](const Delivery& delivery) {
      if (delivery.label() == "b" && !sent_c_) {
        sent_c_ = true;
        checkers_[2]->broadcast("c", {},
                                DepSpec::after_all({a_id_, delivery.id}));
      }
    });
  }

  void start() override {
    a_id_ = checkers_[0]->broadcast("a", {}, DepSpec::none());
    checkers_[2]->broadcast("d", {}, DepSpec::none());
  }

  InvariantMonitor& monitor() override { return monitor_; }

  void on_quiescent() override {
    for (const auto& checker : checkers_) {
      if (checker->delivered_sequence().size() != 4) {
        monitor_.log()->add(check::ViolationKind::kSetDivergence,
                            checker->id(), MessageId::null(),
                            "expected 4 deliveries at quiescence, got " +
                                std::to_string(
                                    checker->delivered_sequence().size()));
      }
    }
  }

 private:
  GroupView view_;
  InvariantMonitor monitor_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  MessageId a_id_;
  bool sent_b_ = false;
  bool sent_c_ = false;
};

TEST(ScheduleExplorer, OSendDagHoldsOnEveryInterleaving) {
  ScheduleExplorer explorer(
      [](Transport& transport) {
        return std::make_unique<OSendDagScenario>(transport);
      },
      default_options());
  const ExplorerResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << result.failure_report;
  EXPECT_GE(result.distinct_schedules, 400u);
  RecordProperty("distinct_schedules",
                 static_cast<int>(result.distinct_schedules));
}

// ---------- scenario 2: ASend deterministic merge ----------
//
// Three members submit spontaneous messages concurrently; the round merge
// must impose ONE order, identical at every member (eq. 5), whatever the
// arrival order of round frames.
class ASendMergeScenario final : public check::Scenario {
 public:
  explicit ASendMergeScenario(Transport& transport)
      : view_(testkit::make_view(3)) {
    InvariantChecker::Options options;
    options.expect_total_order = true;
    for (std::size_t i = 0; i < 3; ++i) {
      checkers_.push_back(monitor_.attach(
          std::make_unique<ASendMember>(transport, view_,
                                        [](const Delivery&) {}),
          options));
    }
  }

  void start() override {
    for (std::size_t i = 0; i < 3; ++i) {
      checkers_[i]->broadcast("m" + std::to_string(i),
                              {static_cast<std::uint8_t>(i)},
                              DepSpec::none());
    }
  }

  InvariantMonitor& monitor() override { return monitor_; }

  void on_quiescent() override {
    for (const auto& checker : checkers_) {
      if (checker->delivered_sequence().size() != 3) {
        monitor_.log()->add(check::ViolationKind::kSetDivergence,
                            checker->id(), MessageId::null(),
                            "expected 3 deliveries at quiescence, got " +
                                std::to_string(
                                    checker->delivered_sequence().size()));
      }
    }
  }

 private:
  GroupView view_;
  InvariantMonitor monitor_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
};

TEST(ScheduleExplorer, ASendMergeAgreesOnEveryInterleaving) {
  ScheduleExplorer explorer(
      [](Transport& transport) {
        return std::make_unique<ASendMergeScenario>(transport);
      },
      default_options());
  const ExplorerResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << result.failure_report;
  EXPECT_GE(result.distinct_schedules, 400u);
}

// ---------- scenario 3: stable-point activity ----------
//
// Two commutative inc(x) from members 0 and 1; member 2 closes the cycle
// with a read(x) whose Occurs_After covers both. At every member the
// stable point must close on the same sync message with the same
// (order-insensitive) state digest — agreement with no extra protocol.
class StableActivityScenario final : public check::Scenario {
 public:
  explicit StableActivityScenario(Transport& transport)
      : view_(testkit::make_view(3)) {
    CommutativitySpec spec;
    spec.mark_commutative("inc");
    InvariantChecker::Options options;
    options.stable_spec = spec;
    for (std::size_t i = 0; i < 3; ++i) {
      checkers_.push_back(monitor_.attach(
          std::make_unique<OSendMember>(transport, view_,
                                        [](const Delivery&) {}),
          options));
      // on_quiescent reads the stable points each checker passed up.
      recorders_.push_back(std::make_unique<testkit::Recorder>(spec));
    }
    checkers_[0]->set_deliver(recorders_[0]->tap());
    checkers_[1]->set_deliver(recorders_[1]->tap());
    checkers_[2]->set_deliver(
        recorders_[2]->tap([this](const Delivery& delivery) {
          if (delivery.label() == "inc(x)") {
            incs_seen_.push_back(delivery.id);
            if (incs_seen_.size() == 4) {
              checkers_[2]->broadcast("read(x)", {},
                                      DepSpec::after_all(incs_seen_));
            }
          }
        }));
  }

  void start() override {
    // Four concurrent commutative updates (two per updater) make the
    // interleaving space comfortably larger than the DFS budget.
    checkers_[0]->broadcast("inc(x)", {1}, DepSpec::none());
    checkers_[0]->broadcast("inc(x)", {3}, DepSpec::none());
    checkers_[1]->broadcast("inc(x)", {2}, DepSpec::none());
    checkers_[1]->broadcast("inc(x)", {4}, DepSpec::none());
  }

  InvariantMonitor& monitor() override { return monitor_; }

  void on_quiescent() override {
    for (std::size_t i = 0; i < checkers_.size(); ++i) {
      const NodeId member = checkers_[i]->id();
      const std::vector<StablePoint>& points = recorders_[i]->points();
      if (points.size() != 1) {
        monitor_.log()->add(check::ViolationKind::kStableDivergence, member,
                            MessageId::null(),
                            "expected 1 stable point at quiescence, got " +
                                std::to_string(points.size()));
      } else if (!points[0].coverage_complete) {
        monitor_.log()->add(check::ViolationKind::kStableDivergence, member,
                            points[0].sync_message,
                            "sync coverage incomplete");
      }
    }
  }

 private:
  GroupView view_;
  InvariantMonitor monitor_;
  // Declared before checkers_, so they outlive the taps that feed them.
  std::vector<std::unique_ptr<testkit::Recorder>> recorders_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  std::vector<MessageId> incs_seen_;
};

TEST(ScheduleExplorer, StableActivityAgreesOnEveryInterleaving) {
  ScheduleExplorer explorer(
      [](Transport& transport) {
        return std::make_unique<StableActivityScenario>(transport);
      },
      default_options());
  const ExplorerResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << result.failure_report;
  EXPECT_GE(result.distinct_schedules, 400u);
}

// ---------- negative: an injected ordering bug must be caught ----------

/// A broken discipline: broadcasts carry their Occurs_After set but
/// deliveries ignore it entirely (no hold-back) — the bug class the
/// checker exists to catch.
class UnorderedMember final : public BroadcastMember {
 public:
  UnorderedMember(Transport& transport, const GroupView& view,
                  DeliverFn deliver)
      : transport_(transport), view_(view), deliver_(std::move(deliver)) {
    id_ = transport.add_endpoint([this](NodeId /*from*/,
                                        const WireFrame& frame) {
      Delivery delivery(Envelope::parse(frame.buffer, frame.offset));
      deliver_now(std::move(delivery));
    });
  }

  [[nodiscard]] NodeId id() const override { return id_; }

  MessageId broadcast(std::string label, std::vector<std::uint8_t> payload,
                      const DepSpec& deps) override {
    const MessageId message_id{id_, next_seq_++};
    Writer writer;
    Envelope::encode_section(writer, message_id, label, deps,
                             transport_.now_us(), payload);
    const SharedBuffer frame = writer.take_shared();
    for (const NodeId member : view_.members()) {
      if (member != id_) {
        transport_.send(id_, member, frame);
      }
    }
    deliver_now(Delivery(Envelope::parse(frame, 0)));
    return message_id;
  }

  [[nodiscard]] const OrderingStats& stats() const override { return stats_; }
  [[nodiscard]] const GroupView& view() const override { return view_; }
  void set_deliver(DeliverFn deliver) override { deliver_ = std::move(deliver); }
  [[nodiscard]] RecursiveMutex& stack_mutex() const override {
    return mutex_;
  }

 private:
  void deliver_now(Delivery delivery) {
    delivery.delivered_at = transport_.now_us();
    stats_.delivered += 1;
    if (deliver_) {
      deliver_(delivery);
    }
  }

  Transport& transport_;
  GroupView view_;
  DeliverFn deliver_;
  NodeId id_ = kNoNode;
  SeqNo next_seq_ = 1;
  OrderingStats stats_;
  mutable RecursiveMutex mutex_{kRankStack, "stub stack"};
};

class InjectedBugScenario final : public check::Scenario {
 public:
  explicit InjectedBugScenario(Transport& transport)
      : view_(testkit::make_view(2)) {
    for (std::size_t i = 0; i < 2; ++i) {
      checkers_.push_back(monitor_.attach(std::make_unique<UnorderedMember>(
          transport, view_, [](const Delivery&) {})));
    }
  }

  void start() override {
    const MessageId a = checkers_[0]->broadcast("a", {}, DepSpec::none());
    checkers_[0]->broadcast("b", {}, DepSpec::after(a));
  }

  InvariantMonitor& monitor() override { return monitor_; }

 private:
  GroupView view_;
  InvariantMonitor monitor_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
};

TEST(ScheduleExplorer, InjectedOrderingBugIsFoundAndMinimized) {
  ScheduleExplorer explorer(
      [](Transport& transport) {
        return std::make_unique<InjectedBugScenario>(transport);
      },
      default_options());
  const ExplorerResult result = explorer.explore();
  ASSERT_TRUE(result.violation_found);
  // The minimal reorder: deliver b at member 1 before a (one non-FIFO
  // choice).
  ASSERT_FALSE(result.failing_schedule.empty());
  EXPECT_NE(result.failure_report.find("dependency"), std::string::npos)
      << result.failure_report;
  EXPECT_NE(result.failure_report.find("Occurs_After"), std::string::npos);
  EXPECT_NE(result.failure_report.find("failing schedule"), std::string::npos);
  // The reported schedule replays to the same violation.
  EXPECT_FALSE(explorer.replay(result.failing_schedule).empty());
}

// The combined suite covers well over 1,000 distinct interleavings: each
// positive scenario above enumerates >= 400 (DFS budget) and the three
// run in every ctest invocation.
TEST(ScheduleExplorer, CombinedCoverageExceedsThousandInterleavings) {
  std::size_t total = 0;
  const auto count = [&total](check::ScenarioFactory factory) {
    ExplorerOptions options = default_options();
    options.random_schedules = 0;
    ScheduleExplorer explorer(std::move(factory), options);
    const ExplorerResult result = explorer.explore();
    EXPECT_TRUE(result.ok()) << result.failure_report;
    total += result.distinct_schedules;
  };
  count([](Transport& transport) {
    return std::make_unique<OSendDagScenario>(transport);
  });
  count([](Transport& transport) {
    return std::make_unique<ASendMergeScenario>(transport);
  });
  count([](Transport& transport) {
    return std::make_unique<StableActivityScenario>(transport);
  });
  EXPECT_GE(total, 1000u);
}

TEST(ScheduleExplorer, MetricsCountTheSearch) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (-DCBC_OBS=OFF)";
  }
  obs::MetricsRegistry registry;
  ExplorerOptions options = default_options();
  options.metrics = &registry;
  ScheduleExplorer explorer(
      [](Transport& transport) {
        return std::make_unique<InjectedBugScenario>(transport);
      },
      options);
  const ExplorerResult result = explorer.explore();
  ASSERT_TRUE(result.violation_found);
  const auto snap = registry.snapshot();
  // The schedules counter moves in lockstep with the result field.
  EXPECT_EQ(snap.at("explorer.schedules_explored"),
            static_cast<double>(result.schedules_explored));
  EXPECT_GE(snap.at("explorer.violations_found"), 1.0);
  // Minimization replayed shrunken candidates.
  EXPECT_GT(snap.at("explorer.minimize_steps"), 0.0);
}

}  // namespace
}  // namespace cbc
