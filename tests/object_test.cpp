// The replicated-object layer: spec-derived commutativity for every app
// object (no hand-labelled bits anywhere), the type-erased Value handle,
// the catalog, and the workload/sync hooks the cluster binary runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "activity/commutativity.h"
#include "apps/card_game.h"
#include "apps/counter.h"
#include "apps/document.h"
#include "apps/fifo_queue.h"
#include "apps/install.h"
#include "apps/registry.h"
#include "apps/replicated_set.h"
#include "common/sim_env.h"
#include "object/catalog.h"
#include "object/replicated_object.h"
#include "object/sequential_spec.h"
#include "object/value.h"
#include "replica/replica_group.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace cbc {
namespace {

using object::Catalog;
using object::Op;
using object::SequentialSpec;
using object::Value;
using object::derive_commutativity;

/// The C-class of a derived spec, asserted kind by kind.
void expect_c_class(const CommutativitySpec& spec,
                    const std::vector<std::string>& commutative,
                    const std::vector<std::string>& sync) {
  for (const std::string& kind : commutative) {
    EXPECT_TRUE(spec.is_commutative(kind)) << kind << " should be C-class";
  }
  for (const std::string& kind : sync) {
    EXPECT_FALSE(spec.is_commutative(kind)) << kind << " should be sync";
  }
}

// ---------- Derived commutativity per object ----------

TEST(ObjectSpec, CounterDerivesIncDecNopCommutative) {
  const CommutativitySpec spec = derive_commutativity(apps::Counter::seq_spec());
  expect_c_class(spec, {"inc", "dec", "nop"}, {"rd", "set"});
  // Reads commute with each other even outside the C-class.
  EXPECT_TRUE(spec.commute("rd", "rd"));
  EXPECT_FALSE(spec.commute("set", "rd"));
  EXPECT_FALSE(spec.commute("set", "set"));
}

TEST(ObjectSpec, RegistryDerivesQueriesCommutativeUpdatesSync) {
  const CommutativitySpec spec =
      derive_commutativity(apps::Registry::seq_spec());
  // §5.2: "name queries commute with each other"; same-name upds conflict.
  expect_c_class(spec, {"qry", "nop"}, {"upd"});
  EXPECT_FALSE(spec.commute("upd", "qry"));
}

TEST(ObjectSpec, DocumentDerivesAnnotateCommutative) {
  const CommutativitySpec spec =
      derive_commutativity(apps::Document::seq_spec());
  expect_c_class(spec, {"annotate", "nop"}, {"rewrite", "publish", "snap"});
}

TEST(ObjectSpec, CardGameDerivesPlaysCommutative) {
  const CommutativitySpec spec =
      derive_commutativity(apps::CardGame::seq_spec());
  // §5.1: distinct (turn, player) plays commute — the probe set encodes
  // the game's one-play-per-key rule, so no hand label is needed.
  expect_c_class(spec, {"card", "nop"}, {"round_end", "peek"});
}

TEST(ObjectSpec, SetDerivesAddCommutativeRemSync) {
  const CommutativitySpec spec =
      derive_commutativity(apps::ReplicatedSet::seq_spec());
  // add(x);add(x) is idempotent-commutative, but rem races add on the
  // same element — the base state {add(c)} exposes the conflict.
  expect_c_class(spec, {"add", "nop"}, {"rem", "has", "snap"});
}

TEST(ObjectSpec, QueueDerivesEnqCommutativeDeqSync) {
  const CommutativitySpec spec =
      derive_commutativity(apps::FifoQueue::seq_spec());
  // Unique-tag enqueues commute; two dequeues from a 2-element base pop
  // different elements depending on order, so deq is a sync op.
  expect_c_class(spec, {"enq", "nop"}, {"deq", "len"});
}

TEST(ObjectSpec, DerivationIsDeterministic) {
  // Every member derives its table independently — two derivations of the
  // same spec must agree kind-for-kind or cycle membership diverges.
  for (const char* raw : {"counter", "registry", "document", "card_game",
                          "set", "queue"}) {
    const std::string name = raw;
    apps::install_objects();
    const auto entry = Catalog::instance().find(name);
    ASSERT_TRUE(entry.has_value()) << name;
    const SequentialSpec spec = entry->spec();
    const CommutativitySpec first = derive_commutativity(spec);
    const CommutativitySpec second = derive_commutativity(spec);
    for (const Op& probe : spec.probes()) {
      EXPECT_EQ(first.is_commutative(probe.kind),
                second.is_commutative(probe.kind))
          << name << "/" << probe.kind;
    }
  }
}

// ---------- Nop inertness ----------

TEST(ObjectSpec, NopIsInertOnEveryObject) {
  apps::install_objects();
  for (const std::string& name : Catalog::instance().names()) {
    const auto entry = Catalog::instance().find(name);
    ASSERT_TRUE(entry.has_value());
    const std::unique_ptr<object::ReplicatedObject> fresh = entry->make();
    const std::unique_ptr<object::ReplicatedObject> probed = entry->make();
    const Op nop = object::nop(42);
    Reader args(nop.args);
    probed->apply(nop.kind, args);
    EXPECT_TRUE(probed->equals(*fresh)) << name;
  }
}

// ---------- Value handle ----------

TEST(ObjectValue, EncodeDecodeRoundTripsEveryObject) {
  apps::install_objects();
  for (const std::string& name : Catalog::instance().names()) {
    const auto entry = Catalog::instance().find(name);
    ASSERT_TRUE(entry.has_value());
    Value value(entry->make());
    // A little deterministic workload so the state is non-trivial.
    for (std::uint64_t k = 0; k < 5; ++k) {
      const Op op = entry->workload_op(0, 0, k);
      Reader args(op.args);
      value.apply(op.kind, args);
    }
    Writer writer;
    value.encode(writer);
    const std::vector<std::uint8_t> bytes = writer.take();
    Reader reader(bytes);
    const Value decoded = Value::decode(reader);
    EXPECT_TRUE(decoded == value) << name;
    EXPECT_EQ(decoded.to_string(), value.to_string()) << name;
  }
}

TEST(ObjectValue, CopyIsDeepAndEmptyApplyThrows) {
  apps::install_objects();
  const auto entry = Catalog::instance().find("counter");
  ASSERT_TRUE(entry.has_value());
  Value original(entry->make());
  Value copy = original;
  const Op inc = apps::Counter::inc(5);
  Reader args(inc.args);
  copy.apply(inc.kind, args);
  EXPECT_FALSE(copy == original) << "copy must not share state";

  Value empty;
  Reader again(inc.args);
  EXPECT_THROW(empty.apply(inc.kind, again), InvalidArgument);
}

TEST(ObjectValue, DecodeOfUnknownTypeNameThrows) {
  Writer writer;
  writer.str("no_such_object");
  writer.blob({});
  const std::vector<std::uint8_t> bytes = writer.take();
  Reader reader(bytes);
  EXPECT_THROW((void)Value::decode(reader), InvalidArgument);
}

// ---------- Catalog and workload hooks ----------

TEST(ObjectCatalog, InstallIsIdempotentAndListsAllSix) {
  apps::install_objects();
  apps::install_objects();
  const std::vector<std::string> names = Catalog::instance().names();
  for (const char* expected : {"counter", "registry", "document",
                               "card_game", "set", "queue"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " missing from catalog";
  }
  EXPECT_FALSE(Catalog::instance().find("no_such_object").has_value());
  EXPECT_THROW((void)Catalog::instance().make_value("no_such_object"),
               InvalidArgument);
}

TEST(ObjectCatalog, WorkloadOpsAreDeterministicAndCClass) {
  // Round workloads feed the open causal cycle, so every generated op
  // must be C-class under the object's own derived table — and identical
  // across invocations (members must be able to re-derive each other's
  // traffic in tests).
  apps::install_objects();
  for (const std::string& name : Catalog::instance().names()) {
    const auto entry = Catalog::instance().find(name);
    ASSERT_TRUE(entry.has_value());
    const CommutativitySpec spec = derive_commutativity(entry->spec());
    for (NodeId node = 0; node < 3; ++node) {
      for (std::uint64_t k = 0; k < 4; ++k) {
        const Op op = entry->workload_op(node, 2, k);
        const Op again = entry->workload_op(node, 2, k);
        EXPECT_EQ(op.kind, again.kind);
        EXPECT_EQ(op.args, again.args);
        EXPECT_TRUE(spec.is_commutative(op.kind))
            << name << " workload emits sync op " << op.kind;
      }
    }
    // The sync op must NOT be C-class, or it could never close a cycle.
    EXPECT_FALSE(spec.is_commutative(entry->sync_op.kind)) << name;
  }
}

// ---------- The generalized replica protocol, per object ----------

TEST(ObjectReplica, GroupConvergesAtStablePointForEveryObject) {
  // The exact acceptance shape of the refactor: the SAME ReplicaNode
  // code, instantiated on the type-erased Value, runs every catalog
  // object through the §6.1 cycle — commutative workload burst, one sync
  // — and agrees at the stable point, with the commutativity table
  // derived from the spec rather than hand-labelled.
  apps::install_objects();
  for (const std::string& name : object::Catalog::instance().names()) {
    testkit::SimEnv env;
    const auto entry = Catalog::instance().find(name);
    ASSERT_TRUE(entry.has_value());
    ReplicaNode<Value>::Options options;
    options.initial = Value(entry->make());
    ReplicaGroup<Value> group(env.transport, 3,
                              derive_commutativity(entry->spec()), options);
    for (std::uint64_t round = 0; round < 2; ++round) {
      for (std::size_t node = 0; node < 3; ++node) {
        for (std::uint64_t k = 0; k < 3; ++k) {
          group.node(node).submit(
              entry->workload_op(static_cast<NodeId>(node), round, k));
        }
      }
      env.run();
      group.node(0).submit(entry->sync_op);
      env.run();
    }
    EXPECT_TRUE(group.states_agree()) << name;
    EXPECT_TRUE(group.stable_states_agree()) << name;
    // The stable snapshot is a deep copy, not an alias of live state.
    group.node(0).submit(entry->workload_op(0, 9, 0));
    env.run();
    EXPECT_TRUE(group.stable_states_agree()) << name;
  }
}

}  // namespace
}  // namespace cbc
