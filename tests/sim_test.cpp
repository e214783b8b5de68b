// Unit tests for the discrete-event scheduler and simulated network.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "sim/latency.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/ensure.h"

namespace cbc::sim {
namespace {

// ---------- Scheduler ----------

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.at(30, [&] { order.push_back(3); });
  scheduler.at(10, [&] { order.push_back(1); });
  scheduler.at(20, [&] { order.push_back(2); });
  EXPECT_EQ(scheduler.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), 30);
}

TEST(Scheduler, TiesBreakInInsertionOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.at(5, [&order, i] { order.push_back(i); });
  }
  scheduler.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Scheduler, AfterSchedulesRelativeToNow) {
  Scheduler scheduler;
  SimTime seen = -1;
  scheduler.at(100, [&] {
    scheduler.after(50, [&] { seen = scheduler.now(); });
  });
  scheduler.run();
  EXPECT_EQ(seen, 150);
}

TEST(Scheduler, RejectsPastScheduling) {
  Scheduler scheduler;
  scheduler.at(10, [] {});
  scheduler.run();
  EXPECT_THROW(scheduler.at(5, [] {}), InvalidArgument);
  EXPECT_THROW(scheduler.after(-1, [] {}), InvalidArgument);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler scheduler;
  EXPECT_FALSE(scheduler.step());
  scheduler.at(1, [] {});
  EXPECT_TRUE(scheduler.step());
  EXPECT_FALSE(scheduler.step());
}

TEST(Scheduler, RunUntilAdvancesClockEvenWhenEmpty) {
  Scheduler scheduler;
  EXPECT_EQ(scheduler.run_until(500), 0u);
  EXPECT_EQ(scheduler.now(), 500);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler scheduler;
  std::vector<SimTime> fired;
  scheduler.at(10, [&] { fired.push_back(10); });
  scheduler.at(20, [&] { fired.push_back(20); });
  scheduler.at(30, [&] { fired.push_back(30); });
  EXPECT_EQ(scheduler.next_at(), std::optional<SimTime>(10));
  scheduler.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(scheduler.pending(), 1u);
  EXPECT_EQ(scheduler.now(), 20);
  EXPECT_EQ(scheduler.next_at(), std::optional<SimTime>(30));
  scheduler.run();
  EXPECT_FALSE(scheduler.next_at().has_value());
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler scheduler;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      scheduler.after(10, chain);
    }
  };
  scheduler.after(0, chain);
  scheduler.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(scheduler.now(), 40);
}

TEST(Scheduler, StepMovesItsActionOutInsteadOfCopyingIt) {
  // Counts the copies the queue makes of it; moving it is free.
  struct Counted {
    int* copies;
    explicit Counted(int* counter) : copies(counter) {}
    Counted(const Counted& other) : copies(other.copies) { ++*copies; }
    Counted(Counted&&) noexcept = default;
    Counted& operator=(const Counted&) = delete;
    Counted& operator=(Counted&&) = delete;
    ~Counted() = default;
    void operator()() const {}
  };
  int copies = 0;
  Scheduler scheduler;
  scheduler.at(2, Counted(&copies));
  scheduler.at(1, Counted(&copies));
  EXPECT_EQ(scheduler.run(), 2u);
  EXPECT_EQ(copies, 0);
}

TEST(Scheduler, MaxEventsCapRespected) {
  Scheduler scheduler;
  for (int i = 0; i < 10; ++i) {
    scheduler.at(i, [] {});
  }
  EXPECT_EQ(scheduler.run(4), 4u);
  EXPECT_EQ(scheduler.pending(), 6u);
}

// ---------- Latency models ----------

TEST(Latency, UniformJitterWithinBounds) {
  const UniformJitterLatency model(100, 50);
  Rng rng(2);
  bool varied = false;
  SimTime first = model.sample(rng);
  for (int i = 0; i < 200; ++i) {
    const SimTime v = model.sample(rng);
    EXPECT_GE(v, 100);
    EXPECT_LE(v, 150);
    varied |= (v != first);
  }
  EXPECT_TRUE(varied);
}

TEST(Latency, ConstructorValidation) {
  EXPECT_THROW(UniformJitterLatency(-1, 0), InvalidArgument);
  EXPECT_THROW(UniformJitterLatency(0, -1), InvalidArgument);
}

// ---------- SimNetwork ----------

struct NetFixture {
  explicit NetFixture(SimTime jitter = 0, std::uint64_t seed = 99)
      : network(scheduler,
                std::make_unique<UniformJitterLatency>(100, jitter), seed) {}

  NodeId add_recorder() {
    const auto index = received.size();
    received.emplace_back();
    return network.add_node(
        [this, index](NodeId from, const WireFrame& frame) {
          const auto payload = frame.bytes();
          received[index].emplace_back(
              from, std::vector<std::uint8_t>(payload.begin(), payload.end()));
        });
  }

  Scheduler scheduler;
  SimNetwork network;
  std::vector<std::vector<std::pair<NodeId, std::vector<std::uint8_t>>>>
      received;
};

TEST(SimNetwork, DeliversWithLatency) {
  NetFixture fx;
  const NodeId a = fx.add_recorder();
  const NodeId b = fx.add_recorder();
  fx.network.send(a, b, {1, 2, 3});
  EXPECT_TRUE(fx.received[b].empty());
  fx.scheduler.run();
  ASSERT_EQ(fx.received[b].size(), 1u);
  EXPECT_EQ(fx.received[b][0].first, a);
  EXPECT_EQ(fx.received[b][0].second, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(fx.scheduler.now(), 100);
}

TEST(SimNetwork, SelfSendDelivered) {
  NetFixture fx;
  const NodeId a = fx.add_recorder();
  fx.network.send(a, a, {9});
  fx.scheduler.run();
  ASSERT_EQ(fx.received[a].size(), 1u);
}

TEST(SimNetwork, StatsCountBytes) {
  NetFixture fx;
  const NodeId a = fx.add_recorder();
  const NodeId b = fx.add_recorder();
  fx.network.send(a, b, std::vector<std::uint8_t>(37, 0));
  fx.scheduler.run();
  EXPECT_EQ(fx.network.stats().sent, 1u);
  EXPECT_EQ(fx.network.stats().delivered, 1u);
  EXPECT_EQ(fx.network.stats().bytes, 37u);
}

TEST(SimNetwork, JitterReordersMessages) {
  // With large jitter, two messages sent back-to-back can arrive swapped.
  NetFixture fx(/*jitter=*/1000, /*seed=*/7);
  const NodeId a = fx.add_recorder();
  const NodeId b = fx.add_recorder();
  bool reordered = false;
  for (std::uint8_t round = 0; round < 20 && !reordered; ++round) {
    fx.received[b].clear();
    fx.network.send(a, b, {static_cast<std::uint8_t>(round * 2)});
    fx.network.send(a, b, {static_cast<std::uint8_t>(round * 2 + 1)});
    fx.scheduler.run();
    ASSERT_EQ(fx.received[b].size(), 2u);
    reordered = fx.received[b][0].second[0] > fx.received[b][1].second[0];
  }
  EXPECT_TRUE(reordered);
}

TEST(SimNetwork, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    NetFixture fx(/*jitter=*/500, seed);
    const NodeId a = fx.add_recorder();
    const NodeId b = fx.add_recorder();
    for (std::uint8_t i = 0; i < 50; ++i) {
      fx.network.send(a, b, {i});
    }
    fx.scheduler.run();
    std::vector<std::uint8_t> order;
    for (const auto& [from, payload] : fx.received[b]) {
      order.push_back(payload[0]);
    }
    return order;
  };
  EXPECT_EQ(run_once(1234), run_once(1234));
  EXPECT_NE(run_once(1234), run_once(5678));
}

TEST(SimNetwork, RejectsUnknownNodes) {
  NetFixture fx;
  const NodeId a = fx.add_recorder();
  EXPECT_THROW(fx.network.send(a, 99, {1}), InvalidArgument);
  EXPECT_THROW(fx.network.send(99, a, {1}), InvalidArgument);
}

}  // namespace
}  // namespace cbc::sim
