#include "apps/install.h"

#include <functional>
#include <memory>
#include <string>

#include "apps/card_game.h"
#include "apps/counter.h"
#include "apps/document.h"
#include "apps/fifo_queue.h"
#include "apps/kv_store.h"
#include "apps/registry.h"
#include "apps/replicated_set.h"
#include "object/adapter.h"
#include "object/catalog.h"

namespace cbc::apps {

namespace {

template <typename T>
object::CatalogEntry entry_for(
    std::string name, object::SequentialSpec (*seq_spec)(),
    std::function<object::Op(cbc::NodeId, std::uint64_t, std::uint64_t)>
        workload_op,
    object::Op sync_op) {
  object::CatalogEntry entry;
  entry.name = name;
  entry.make = [name] { return std::make_unique<object::Adapter<T>>(name); };
  entry.spec = seq_spec;
  entry.workload_op = std::move(workload_op);
  entry.sync_op = std::move(sync_op);
  return entry;
}

}  // namespace

void install_objects() {
  object::Catalog& catalog = object::Catalog::instance();

  catalog.install(entry_for<Counter>(
      "counter", &Counter::seq_spec,
      [](cbc::NodeId, std::uint64_t, std::uint64_t k) {
        return k % 2 == 0 ? Counter::inc(1) : Counter::dec(1);
      },
      Counter::rd()));

  // The registry's C-class is its queries (§5.2); updates close
  // activities, so the round sync is a deterministic upd.
  catalog.install(entry_for<Registry>(
      "registry", &Registry::seq_spec,
      [](cbc::NodeId node, std::uint64_t, std::uint64_t k) {
        return Registry::qry("name" + std::to_string((node + k) % 4));
      },
      Registry::upd("round", "closed")));

  catalog.install(entry_for<Document>(
      "document", &Document::seq_spec,
      [](cbc::NodeId node, std::uint64_t round, std::uint64_t k) {
        return Document::annotate(
            "sec" + std::to_string(k % 3),
            "n" + std::to_string(node) + "-r" + std::to_string(round) + "-k" +
                std::to_string(k));
      },
      Document::snap()));

  // Distinct (turn, player) per play: the turn encodes (round, slot) and
  // the player is the submitting member — the game's one-play-per-key
  // rule, upheld by construction.
  catalog.install(entry_for<CardGame>(
      "card_game", &CardGame::seq_spec,
      [](cbc::NodeId node, std::uint64_t round, std::uint64_t k) {
        return CardGame::card(round * 1024 + k + 1,
                              static_cast<std::uint32_t>(node),
                              static_cast<std::int64_t>(node * 100 + k));
      },
      CardGame::peek(1, 0)));

  catalog.install(entry_for<ReplicatedSet>(
      "set", &ReplicatedSet::seq_spec,
      [](cbc::NodeId node, std::uint64_t round, std::uint64_t k) {
        return ReplicatedSet::add("elem" +
                                  std::to_string((node * 7 + round + k) % 13));
      },
      ReplicatedSet::snap()));

  // Session-unique keys by construction: each member writes its own key
  // namespace ("s<node>_k<slot>"), one write per slot per round — the kv
  // store's single-writer-per-key domain claim, upheld here. The
  // state-inert fence closes rounds.
  catalog.install(entry_for<KvStore>(
      "kv", &KvStore::seq_spec,
      [](cbc::NodeId node, std::uint64_t round, std::uint64_t k) {
        return KvStore::put(
            "s" + std::to_string(node) + "_k" + std::to_string(k),
            "r" + std::to_string(round) + "v" + std::to_string(node + k));
      },
      KvStore::fence()));

  // Producer-unique tags by construction: node/round/slot packed into
  // disjoint bit ranges — the queue's domain guarantee, upheld here.
  catalog.install(entry_for<FifoQueue>(
      "queue", &FifoQueue::seq_spec,
      [](cbc::NodeId node, std::uint64_t round, std::uint64_t k) {
        const std::uint64_t tag = (static_cast<std::uint64_t>(node) << 40) |
                                  (round << 20) | (k + 1);
        return FifoQueue::enq(tag,
                              static_cast<std::int64_t>(node * 1000 + k));
      },
      FifoQueue::len()));
}

}  // namespace cbc::apps
