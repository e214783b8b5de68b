// Tests for commutativity specs, the transition-preservation checker, and
// the stable-point detector.
#include <gtest/gtest.h>

#include "activity/commutativity.h"
#include "activity/stable_point.h"
#include "activity/transition_check.h"
#include "apps/card_game.h"
#include "apps/counter.h"
#include "apps/document.h"
#include "apps/registry.h"
#include "graph/message_graph.h"

namespace cbc {
namespace {

MessageId id(NodeId sender, SeqNo seq) { return MessageId{sender, seq}; }

// ---------- CommutativitySpec ----------

TEST(Commutativity, KindExtraction) {
  EXPECT_EQ(CommutativitySpec::kind_of("inc"), "inc");
  EXPECT_EQ(CommutativitySpec::kind_of("inc(x)"), "inc");
  EXPECT_EQ(CommutativitySpec::kind_of("inc#3"), "inc");
  EXPECT_EQ(CommutativitySpec::kind_of("inc(x)#12"), "inc");
  EXPECT_EQ(CommutativitySpec::kind_of(""), "");
}

TEST(Commutativity, MarkedKindsAreCommutative) {
  CommutativitySpec spec;
  spec.mark_commutative("inc");
  spec.mark_commutative("dec");
  EXPECT_TRUE(spec.is_commutative("inc#4"));
  EXPECT_TRUE(spec.is_commutative("dec(x)"));
  EXPECT_FALSE(spec.is_commutative("rd"));
  EXPECT_TRUE(spec.commute("inc#1", "dec#2"));
  EXPECT_FALSE(spec.commute("inc#1", "rd#1"));
}

TEST(Commutativity, ExplicitPairsOverrideDefault) {
  CommutativitySpec spec;
  spec.mark_commuting_pair("rd", "rd");
  EXPECT_FALSE(spec.is_commutative("rd"));
  EXPECT_TRUE(spec.commute("rd#1", "rd#2"));
  EXPECT_FALSE(spec.commute("rd#1", "wr#1"));
}

TEST(Commutativity, AllAndNonePresets) {
  const CommutativitySpec all = CommutativitySpec::all_commutative();
  EXPECT_TRUE(all.is_commutative("anything"));
  EXPECT_TRUE(all.commute("a", "b"));
  const CommutativitySpec none = CommutativitySpec::none_commutative();
  EXPECT_FALSE(none.is_commutative("anything"));
  EXPECT_FALSE(none.commute("a", "b"));
}

// ---------- Transition-preservation checker (§4.1) ----------

// Counter ops as graph nodes; apply maps labels to transitions.
void apply_counter(apps::Counter& state, const GraphNode& node) {
  const std::string kind = CommutativitySpec::kind_of(node.label);
  Writer writer;
  if (kind == "inc" || kind == "dec" || kind == "set") {
    writer.i64(kind == "set" ? 100 : 1);
  }
  Reader reader(writer.bytes());
  state.apply(kind, reader);
}

TEST(TransitionCheck, ConcurrentIncrementsAreTransitionPreserving) {
  // mo -> ||{inc, inc, dec} -> (implicit close): all 3! interleavings of
  // the commutative set reach the same value.
  MessageGraph graph;
  graph.add(id(0, 1), "set", DepSpec::none());
  graph.add(id(1, 1), "inc#a", DepSpec::after(id(0, 1)));
  graph.add(id(2, 1), "inc#b", DepSpec::after(id(0, 1)));
  graph.add(id(3, 1), "dec#c", DepSpec::after(id(0, 1)));
  const auto result =
      check_transition_preserving(graph, apps::Counter{}, apply_counter);
  EXPECT_TRUE(result.transition_preserving);
  EXPECT_EQ(result.sequences_checked, 6u);  // 3! orders of the antichain
  EXPECT_EQ(result.canonical.value(), 100 + 1 + 1 - 1);
  EXPECT_FALSE(result.truncated);
}

TEST(TransitionCheck, ConcurrentSetAndIncIsNotPreserving) {
  // set(100) || inc(1): order matters (101 vs 100) -> not a stable point.
  MessageGraph graph;
  graph.add(id(0, 1), "set", DepSpec::none());
  graph.add(id(1, 1), "inc", DepSpec::none());
  const auto result =
      check_transition_preserving(graph, apps::Counter{}, apply_counter);
  EXPECT_FALSE(result.transition_preserving);
}

TEST(TransitionCheck, ChainIsTriviallyPreserving) {
  MessageGraph graph;
  graph.add(id(0, 1), "set", DepSpec::none());
  graph.add(id(0, 2), "inc", DepSpec::after(id(0, 1)));
  graph.add(id(0, 3), "dec", DepSpec::after(id(0, 2)));
  const auto result =
      check_transition_preserving(graph, apps::Counter{}, apply_counter);
  EXPECT_TRUE(result.transition_preserving);
  EXPECT_EQ(result.sequences_checked, 1u);
}

TEST(TransitionCheck, CapTruncatesWideAntichains) {
  MessageGraph graph;
  for (SeqNo i = 1; i <= 7; ++i) {
    graph.add(id(static_cast<NodeId>(i), 1), "inc", DepSpec::none());
  }
  const auto result = check_transition_preserving(graph, apps::Counter{},
                                                  apply_counter, /*cap=*/50);
  EXPECT_TRUE(result.transition_preserving);
  EXPECT_EQ(result.sequences_checked, 50u);
  EXPECT_TRUE(result.truncated);
}

// Formal validation of each app's claimed commutativity: the ops the spec
// calls commutative really are transition-preserving; a non-commutative
// pairing really is not. This ties the CommutativitySpec declarations to
// the §4.1 definition mechanically.

TEST(TransitionCheck, RegistryConcurrentQueriesPreserveButUpdatesDoNot) {
  const auto apply_registry = [](apps::Registry& state, const GraphNode& node) {
    const std::string kind = CommutativitySpec::kind_of(node.label);
    apps::Registry::Op op = kind == "upd"
                                ? apps::Registry::upd("k", node.label)
                                : apps::Registry::qry("k");
    Reader reader(op.args);
    state.apply(kind, reader);
  };
  {
    MessageGraph graph;  // upd -> ||{qry, qry}
    graph.add(id(0, 1), "upd#seed", DepSpec::none());
    graph.add(id(1, 1), "qry#a", DepSpec::after(id(0, 1)));
    graph.add(id(2, 1), "qry#b", DepSpec::after(id(0, 1)));
    EXPECT_TRUE(check_transition_preserving(graph, apps::Registry{},
                                            apply_registry)
                    .transition_preserving);
  }
  {
    MessageGraph graph;  // ||{upd#x, upd#y}: last writer differs per order
    graph.add(id(0, 1), "upd#x", DepSpec::none());
    graph.add(id(1, 1), "upd#y", DepSpec::none());
    EXPECT_FALSE(check_transition_preserving(graph, apps::Registry{},
                                             apply_registry)
                     .transition_preserving);
  }
}

TEST(TransitionCheck, DocumentAnnotationsPreserveRewritesDoNot) {
  const auto apply_doc = [](apps::Document& state, const GraphNode& node) {
    const std::string kind = CommutativitySpec::kind_of(node.label);
    apps::Document::Op op =
        kind == "annotate" ? apps::Document::annotate("s", node.label)
                           : apps::Document::rewrite("s", node.label);
    Reader reader(op.args);
    state.apply(kind, reader);
  };
  {
    MessageGraph graph;  // ||{annotate, annotate, annotate}
    graph.add(id(0, 1), "annotate#1", DepSpec::none());
    graph.add(id(1, 1), "annotate#2", DepSpec::none());
    graph.add(id(2, 1), "annotate#3", DepSpec::none());
    const auto result =
        check_transition_preserving(graph, apps::Document{}, apply_doc);
    EXPECT_TRUE(result.transition_preserving);
    EXPECT_EQ(result.sequences_checked, 6u);
  }
  {
    MessageGraph graph;  // ||{rewrite#a, rewrite#b}
    graph.add(id(0, 1), "rewrite#a", DepSpec::none());
    graph.add(id(1, 1), "rewrite#b", DepSpec::none());
    EXPECT_FALSE(check_transition_preserving(graph, apps::Document{},
                                             apply_doc)
                     .transition_preserving);
  }
}

TEST(TransitionCheck, CardPlaysOnDistinctSlotsPreserve) {
  const auto apply_game = [](apps::CardGame& state, const GraphNode& node) {
    // Encode the player in the label suffix: "card#<p>".
    const std::uint32_t player = static_cast<std::uint32_t>(
        std::stoul(node.label.substr(node.label.find('#') + 1)));
    apps::CardGame::Op op = apps::CardGame::card(0, player, player * 10);
    Reader reader(op.args);
    state.apply("card", reader);
  };
  MessageGraph graph;  // ||{card#0..card#3}, the §5.1 relaxed round
  for (NodeId p = 0; p < 4; ++p) {
    graph.add(id(p, 1), "card#" + std::to_string(p), DepSpec::none());
  }
  const auto result =
      check_transition_preserving(graph, apps::CardGame{}, apply_game);
  EXPECT_TRUE(result.transition_preserving);
  EXPECT_EQ(result.sequences_checked, 24u);  // 4!
}

// ---------- StablePointDetector ----------

Delivery make_delivery(MessageId message_id, std::string label, DepSpec deps,
                       SimTime at = 0) {
  return Delivery::synthetic(message_id, std::move(label), std::move(deps),
                             at);
}

TEST(StablePointDetector, InitialStateIsStable) {
  StablePointDetector detector(apps::Counter::spec(), nullptr);
  EXPECT_TRUE(detector.at_stable_point());
  EXPECT_EQ(detector.open_cycle(), 1u);
  EXPECT_TRUE(detector.open_set().empty());
}

TEST(StablePointDetector, CommutativeMessagesOpenACycle) {
  StablePointDetector detector(apps::Counter::spec(), nullptr);
  detector.on_delivery(make_delivery(id(0, 1), "inc#1", DepSpec::none()));
  detector.on_delivery(make_delivery(id(1, 1), "dec#1", DepSpec::none()));
  EXPECT_FALSE(detector.at_stable_point());
  EXPECT_EQ(detector.open_set().size(), 2u);
  EXPECT_TRUE(detector.history().empty());
}

TEST(StablePointDetector, SyncMessageClosesCycleWithCoverage) {
  std::vector<StablePoint> points;
  StablePointDetector detector(
      apps::Counter::spec(),
      [&points](const StablePoint& point) { points.push_back(point); });
  detector.on_delivery(make_delivery(id(0, 1), "inc#1", DepSpec::none()));
  detector.on_delivery(make_delivery(id(1, 1), "inc#2", DepSpec::none()));
  detector.on_delivery(make_delivery(
      id(2, 1), "rd#1", DepSpec::after_all({id(0, 1), id(1, 1)}), 500));
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].cycle, 1u);
  EXPECT_EQ(points[0].sync_message, id(2, 1));
  EXPECT_EQ(points[0].commutative_set.size(), 2u);
  EXPECT_TRUE(points[0].coverage_complete);
  EXPECT_EQ(points[0].at, 500);
  EXPECT_TRUE(detector.at_stable_point());
  EXPECT_TRUE(detector.open_set().empty());
  EXPECT_EQ(detector.open_cycle(), 2u);
}

TEST(StablePointDetector, IncompleteCoverageFlagged) {
  StablePointDetector detector(apps::Counter::spec(), nullptr,
                               /*keep_history=*/true);
  detector.on_delivery(make_delivery(id(0, 1), "inc#1", DepSpec::none()));
  detector.on_delivery(make_delivery(id(1, 1), "inc#2", DepSpec::none()));
  // Sync message only names one of the two open commutative messages.
  detector.on_delivery(
      make_delivery(id(2, 1), "rd#1", DepSpec::after(id(0, 1))));
  ASSERT_EQ(detector.history().size(), 1u);
  EXPECT_FALSE(detector.history()[0].coverage_complete);
}

TEST(StablePointDetector, RepeatedCyclesCount) {
  StablePointDetector detector(apps::Counter::spec(), nullptr,
                               /*keep_history=*/true);
  SeqNo seq = 1;
  for (std::uint64_t cycle = 1; cycle <= 5; ++cycle) {
    std::vector<MessageId> cids;
    for (int k = 0; k < 3; ++k) {
      const MessageId c = id(0, seq++);
      cids.push_back(c);
      detector.on_delivery(make_delivery(c, "inc#x", DepSpec::none()));
    }
    detector.on_delivery(
        make_delivery(id(1, seq++), "rd#y", DepSpec::after_all(cids)));
    EXPECT_EQ(detector.history().size(), cycle);
    EXPECT_TRUE(detector.history().back().coverage_complete);
  }
  EXPECT_EQ(detector.open_cycle(), 6u);
}

TEST(StablePointDetector, DefaultKeepsOnlyTheLastPoint) {
  StablePointDetector detector(apps::Counter::spec(), nullptr);
  EXPECT_FALSE(detector.last().has_value());
  SeqNo seq = 1;
  for (int cycle = 0; cycle < 100; ++cycle) {
    const MessageId c = id(0, seq++);
    detector.on_delivery(make_delivery(c, "inc#x", DepSpec::none()));
    detector.on_delivery(
        make_delivery(id(1, seq++), "rd#y", DepSpec::after(c)));
  }
  EXPECT_TRUE(detector.history().empty());
  EXPECT_EQ(detector.cycles(), 100u);
  ASSERT_TRUE(detector.last().has_value());
  EXPECT_EQ(detector.last()->cycle, 100u);
  EXPECT_EQ(detector.last()->sync_message, id(1, seq - 1));
  EXPECT_EQ(detector.last()->commutative_set,
            std::vector<MessageId>{id(0, seq - 2)});
  EXPECT_TRUE(detector.last()->coverage_complete);
}

TEST(StablePointDetector, BackToBackSyncMessagesFormEmptyCycles) {
  StablePointDetector detector(apps::Counter::spec(), nullptr,
                               /*keep_history=*/true);
  detector.on_delivery(make_delivery(id(0, 1), "rd#1", DepSpec::none()));
  detector.on_delivery(make_delivery(id(0, 2), "rd#2", DepSpec::after(id(0, 1))));
  ASSERT_EQ(detector.history().size(), 2u);
  EXPECT_TRUE(detector.history()[0].commutative_set.empty());
  EXPECT_TRUE(detector.history()[0].coverage_complete);  // vacuous
  EXPECT_TRUE(detector.history()[1].commutative_set.empty());
}

}  // namespace
}  // namespace cbc
