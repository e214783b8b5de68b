// Unit + property tests for MessageId, DepSpec, and MessageGraph.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/dep_spec.h"
#include "graph/message_graph.h"
#include "graph/message_id.h"
#include "util/ensure.h"
#include "util/rng.h"

namespace cbc {
namespace {

MessageId id(NodeId sender, SeqNo seq) { return MessageId{sender, seq}; }

// ---------- MessageId ----------

TEST(MessageId, NullProperties) {
  EXPECT_TRUE(MessageId::null().is_null());
  EXPECT_FALSE(id(0, 1).is_null());
  EXPECT_EQ(MessageId::null().to_string(), "null");
}

TEST(MessageId, OrderingAndEquality) {
  EXPECT_LT(id(0, 1), id(0, 2));
  EXPECT_LT(id(0, 9), id(1, 1));
  EXPECT_EQ(id(2, 3), id(2, 3));
}

TEST(MessageId, EncodeDecodeRoundTrip) {
  Writer writer;
  id(7, 12345).encode(writer);
  Reader reader(writer.bytes());
  EXPECT_EQ(MessageId::decode(reader), id(7, 12345));
}

TEST(MessageId, HashDistinguishes) {
  std::hash<MessageId> hasher;
  EXPECT_NE(hasher(id(0, 1)), hasher(id(1, 0)));
  EXPECT_NE(hasher(id(0, 1)), hasher(id(0, 2)));
}

// ---------- DepSpec ----------

TEST(DepSpec, NoneIsEmpty) {
  EXPECT_TRUE(DepSpec::none().empty());
  EXPECT_EQ(DepSpec::none().to_string(), "after(null)");
}

TEST(DepSpec, NullIdsIgnored) {
  const DepSpec spec = DepSpec::after(MessageId::null());
  EXPECT_TRUE(spec.empty());
}

TEST(DepSpec, DuplicatesCollapsed) {
  const DepSpec spec = DepSpec::after_all({id(0, 1), id(0, 1), id(1, 2)});
  EXPECT_EQ(spec.size(), 2u);
  EXPECT_TRUE(spec.depends_on(id(0, 1)));
  EXPECT_TRUE(spec.depends_on(id(1, 2)));
  EXPECT_FALSE(spec.depends_on(id(2, 2)));
}

TEST(DepSpec, IdsSorted) {
  const DepSpec spec = DepSpec::after_all({id(3, 1), id(0, 5), id(1, 2)});
  EXPECT_TRUE(std::is_sorted(spec.ids().begin(), spec.ids().end()));
}

TEST(DepSpec, EncodeDecodeRoundTrip) {
  const DepSpec spec = DepSpec::after_all({id(0, 1), id(2, 9)});
  Writer writer;
  spec.encode(writer);
  Reader reader(writer.bytes());
  EXPECT_EQ(DepSpec::decode(reader), spec);
}

// ---------- MessageGraph: Figure 3 of the paper ----------
// Msg with two descendants m1, m2 (many-to-one shown in the paper as
// Occurs_After(m1, Msg); Occurs_After(m2, Msg)).

class Fig3Graph : public ::testing::Test {
 protected:
  void SetUp() override {
    msg_ = id(0, 1);
    m1_ = id(1, 1);
    m2_ = id(2, 1);
    graph_.add(msg_, "Msg", DepSpec::none());
    graph_.add(m1_, "m1", DepSpec::after(msg_));
    graph_.add(m2_, "m2", DepSpec::after(msg_));
  }
  MessageGraph graph_;
  MessageId msg_, m1_, m2_;
};

TEST_F(Fig3Graph, ReachabilityFollowsEdges) {
  EXPECT_TRUE(graph_.reaches(msg_, m1_));
  EXPECT_TRUE(graph_.reaches(msg_, m2_));
  EXPECT_FALSE(graph_.reaches(m1_, msg_));
  EXPECT_FALSE(graph_.reaches(m1_, m2_));
}

TEST_F(Fig3Graph, ManyToOneDescendantsAreConcurrent) {
  EXPECT_TRUE(graph_.concurrent(m1_, m2_));
  EXPECT_FALSE(graph_.concurrent(msg_, m1_));
}

TEST_F(Fig3Graph, RootsAndLeaves) {
  EXPECT_EQ(graph_.roots(), (std::vector<MessageId>{msg_}));
  EXPECT_EQ(graph_.leaves(), (std::vector<MessageId>{m1_, m2_}));
}

TEST_F(Fig3Graph, AncestorsAndDescendants) {
  EXPECT_EQ(graph_.ancestors(m1_), (std::vector<MessageId>{msg_}));
  std::vector<MessageId> expected{m1_, m2_};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(graph_.descendants(msg_), expected);
  EXPECT_TRUE(graph_.ancestors(msg_).empty());
}

TEST_F(Fig3Graph, AllTopologicalOrders) {
  const auto orders = graph_.all_topological_orders();
  // Msg first, then m1/m2 in either order: exactly 2 sequences.
  EXPECT_EQ(orders.size(), 2u);
  for (const auto& order : orders) {
    EXPECT_EQ(order.front(), msg_);
    EXPECT_TRUE(graph_.is_valid_delivery_order(order));
  }
}

TEST_F(Fig3Graph, InvalidDeliveryOrdersRejected) {
  EXPECT_FALSE(graph_.is_valid_delivery_order({m1_, msg_, m2_}));
  EXPECT_FALSE(graph_.is_valid_delivery_order({msg_, m1_}));         // missing
  EXPECT_FALSE(graph_.is_valid_delivery_order({msg_, m1_, m1_}));    // dup
  EXPECT_FALSE(graph_.is_valid_delivery_order({msg_, m1_, m2_, id(9, 9)}));
}

TEST_F(Fig3Graph, DotContainsNodesAndEdges) {
  const std::string dot = graph_.to_dot("fig3");
  EXPECT_NE(dot.find("digraph fig3"), std::string::npos);
  EXPECT_NE(dot.find("Msg"), std::string::npos);
  EXPECT_NE(dot.find("\"s0:1\" -> \"s1:1\""), std::string::npos);
  EXPECT_NE(dot.find("\"s0:1\" -> \"s2:1\""), std::string::npos);
}

// ---------- AND dependency (one-to-many, eq. 3) ----------

TEST(MessageGraph, AndDependencyOrdersAfterAll) {
  MessageGraph graph;
  graph.add(id(0, 1), "m1", DepSpec::none());
  graph.add(id(1, 1), "m2", DepSpec::none());
  graph.add(id(2, 1), "Msg", DepSpec::after_all({id(0, 1), id(1, 1)}));
  const auto orders = graph.all_topological_orders();
  EXPECT_EQ(orders.size(), 2u);  // m1,m2 or m2,m1 — Msg always last
  for (const auto& order : orders) {
    EXPECT_EQ(order.back(), id(2, 1));
  }
  EXPECT_TRUE(graph.closed());
}

TEST(MessageGraph, DanglingDependencyDetected) {
  MessageGraph graph;
  graph.add(id(0, 1), "m", DepSpec::after(id(5, 5)));
  EXPECT_FALSE(graph.closed());
  // The dangling edge does not constrain topological order of inserted
  // nodes.
  EXPECT_EQ(graph.topological_order(), (std::vector<MessageId>{id(0, 1)}));
}

TEST(MessageGraph, LateInsertionWiresSuccessors) {
  MessageGraph graph;
  graph.add(id(1, 1), "b", DepSpec::after(id(0, 1)));  // dep not present yet
  graph.add(id(0, 1), "a", DepSpec::none());           // arrives later
  EXPECT_TRUE(graph.closed());
  EXPECT_TRUE(graph.reaches(id(0, 1), id(1, 1)));
  EXPECT_EQ(graph.direct_successors(id(0, 1)),
            (std::vector<MessageId>{id(1, 1)}));
}

TEST(MessageGraph, DuplicateAndNullInsertionRejected) {
  MessageGraph graph;
  graph.add(id(0, 1), "a", DepSpec::none());
  EXPECT_THROW(graph.add(id(0, 1), "again", DepSpec::none()), InvalidArgument);
  EXPECT_THROW(graph.add(MessageId::null(), "null", DepSpec::none()),
               InvalidArgument);
}

TEST(MessageGraph, TransitiveReachabilityThroughChain) {
  MessageGraph graph;
  for (SeqNo i = 1; i <= 10; ++i) {
    graph.add(id(0, i), "m",
              i == 1 ? DepSpec::none() : DepSpec::after(id(0, i - 1)));
  }
  EXPECT_TRUE(graph.reaches(id(0, 1), id(0, 10)));
  EXPECT_FALSE(graph.reaches(id(0, 10), id(0, 1)));
  EXPECT_EQ(graph.all_topological_orders().size(), 1u);  // a chain
}

TEST(MessageGraph, AllOrdersCapRespected) {
  MessageGraph graph;
  for (SeqNo i = 1; i <= 8; ++i) {
    graph.add(id(static_cast<NodeId>(i), 1), "c", DepSpec::none());
  }
  // 8! = 40320 total orders; cap at 100.
  const auto orders = graph.all_topological_orders(100);
  EXPECT_EQ(orders.size(), 100u);
}

// Property test: for random DAGs, every enumerated order is a valid
// delivery order, and the deterministic topological_order is among the
// valid ones.
TEST(MessageGraphProperty, RandomDagsProduceOnlyValidOrders) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    MessageGraph graph;
    std::vector<MessageId> inserted;
    const std::size_t n = 2 + rng.next_below(5);
    for (std::size_t i = 0; i < n; ++i) {
      const MessageId node = id(static_cast<NodeId>(i), 1);
      DepSpec deps;
      for (const MessageId& candidate : inserted) {
        if (rng.next_bool(0.4)) {
          deps.add(candidate);
        }
      }
      graph.add(node, "n", deps);
      inserted.push_back(node);
    }
    EXPECT_TRUE(graph.closed());
    const auto single = graph.topological_order();
    EXPECT_TRUE(graph.is_valid_delivery_order(single));
    const auto orders = graph.all_topological_orders(200);
    EXPECT_FALSE(orders.empty());
    for (const auto& order : orders) {
      EXPECT_TRUE(graph.is_valid_delivery_order(order));
    }
    // A random shuffle that differs from every enumeration must be invalid
    // (when it violates some edge) — verify the checker catches reversals.
    if (orders.size() > 1) {
      std::vector<MessageId> reversed = single;
      std::reverse(reversed.begin(), reversed.end());
      if (reversed != single &&
          std::find(orders.begin(), orders.end(), reversed) == orders.end()) {
        EXPECT_FALSE(graph.is_valid_delivery_order(reversed));
      }
    }
  }
}

// Property: concurrency is symmetric and exclusive with reachability.
TEST(MessageGraphProperty, ConcurrencyConsistentWithReachability) {
  Rng rng(7);
  MessageGraph graph;
  std::vector<MessageId> nodes;
  for (std::size_t i = 0; i < 12; ++i) {
    const MessageId node = id(static_cast<NodeId>(i), 1);
    DepSpec deps;
    for (const MessageId& candidate : nodes) {
      if (rng.next_bool(0.25)) {
        deps.add(candidate);
      }
    }
    graph.add(node, "n", deps);
    nodes.push_back(node);
  }
  for (const MessageId& a : nodes) {
    for (const MessageId& b : nodes) {
      if (a == b) continue;
      const bool reach = graph.reaches(a, b) || graph.reaches(b, a);
      EXPECT_EQ(graph.concurrent(a, b), !reach);
      EXPECT_EQ(graph.concurrent(a, b), graph.concurrent(b, a));
    }
  }
}

}  // namespace
}  // namespace cbc
