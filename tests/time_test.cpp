// Unit tests for vector clocks.
#include <gtest/gtest.h>

#include "time/vector_clock.h"
#include "util/ensure.h"

namespace cbc {
namespace {

// ---------- VectorClock ----------

TEST(VectorClock, StartsAtZero) {
  VectorClock clock(3);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(clock.at(i), 0u);
  }
}

TEST(VectorClock, TickAndSet) {
  VectorClock clock(3);
  clock.tick(1);
  clock.tick(1);
  clock.set(2, 7);
  EXPECT_EQ(clock.at(0), 0u);
  EXPECT_EQ(clock.at(1), 2u);
  EXPECT_EQ(clock.at(2), 7u);
}

TEST(VectorClock, CompareEqual) {
  VectorClock a(2);
  VectorClock b(2);
  EXPECT_EQ(a.compare(b), ClockOrder::kEqual);
  a.tick(0);
  b.tick(0);
  EXPECT_EQ(a.compare(b), ClockOrder::kEqual);
  EXPECT_EQ(a, b);
}

TEST(VectorClock, CompareBeforeAfter) {
  VectorClock a(2);
  VectorClock b(2);
  b.tick(0);
  EXPECT_EQ(a.compare(b), ClockOrder::kBefore);
  EXPECT_EQ(b.compare(a), ClockOrder::kAfter);
  EXPECT_TRUE(a.happens_before(b));
  EXPECT_FALSE(b.happens_before(a));
}

TEST(VectorClock, CompareConcurrent) {
  VectorClock a(2);
  VectorClock b(2);
  a.tick(0);
  b.tick(1);
  EXPECT_EQ(a.compare(b), ClockOrder::kConcurrent);
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_FALSE(a.happens_before(b));
}

TEST(VectorClock, MergeTakesComponentwiseMax) {
  VectorClock a(3);
  VectorClock b(3);
  a.set(0, 5);
  a.set(1, 1);
  b.set(1, 4);
  b.set(2, 2);
  a.merge(b);
  EXPECT_EQ(a.at(0), 5u);
  EXPECT_EQ(a.at(1), 4u);
  EXPECT_EQ(a.at(2), 2u);
}

TEST(VectorClock, MergeMakesOtherHappenBefore) {
  VectorClock a(2);
  VectorClock b(2);
  b.tick(1);
  a.merge(b);
  a.tick(0);
  EXPECT_TRUE(b.happens_before(a));
}

TEST(VectorClock, WidthMismatchRejected) {
  VectorClock a(2);
  VectorClock b(3);
  EXPECT_THROW(a.merge(b), InvalidArgument);
  EXPECT_THROW((void)a.compare(b), InvalidArgument);
}

TEST(VectorClock, OutOfRangeRejected) {
  VectorClock a(2);
  EXPECT_THROW((void)a.at(2), InvalidArgument);
  EXPECT_THROW(a.tick(5), InvalidArgument);
  EXPECT_THROW(VectorClock(0), InvalidArgument);
}

TEST(VectorClock, EncodeDecodeRoundTrip) {
  VectorClock a(4);
  a.set(0, 1);
  a.set(3, 99);
  Writer writer;
  a.encode(writer);
  Reader reader(writer.bytes());
  const VectorClock b = VectorClock::decode(reader);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(reader.exhausted());
}

TEST(VectorClock, ToStringFormat) {
  VectorClock a(3);
  a.set(1, 2);
  EXPECT_EQ(a.to_string(), "[0,2,0]");
}

// Property: happens_before is transitive and antisymmetric over a chain of
// merged clocks (simulating message passing).
TEST(VectorClock, HappensBeforeTransitiveAlongMessageChain) {
  const std::size_t n = 4;
  std::vector<VectorClock> events;
  VectorClock node0(n);
  node0.tick(0);
  events.push_back(node0);  // e0 at node 0
  VectorClock node1(n);
  node1.merge(node0);
  node1.tick(1);
  events.push_back(node1);  // e1 at node 1 after receiving from 0
  VectorClock node2(n);
  node2.merge(node1);
  node2.tick(2);
  events.push_back(node2);  // e2 at node 2 after receiving from 1
  EXPECT_TRUE(events[0].happens_before(events[1]));
  EXPECT_TRUE(events[1].happens_before(events[2]));
  EXPECT_TRUE(events[0].happens_before(events[2]));  // transitivity
  EXPECT_FALSE(events[2].happens_before(events[0]));
}

}  // namespace
}  // namespace cbc
