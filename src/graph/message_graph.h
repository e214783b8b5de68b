// The message dependency graph (paper §2.2, §3, Figure 3).
//
// Nodes are messages (with an application-level label); a directed edge
// m -> Msg records the causal relation "Msg occurs after m". Because
// R(M) is *stable* — identical at all members and across executions — the
// graph is the common ground on which members agree about ordering,
// concurrency, and stable points without exchanging extra messages.
//
// The graph supports the queries the rest of the stack needs:
//   - reachability ("does m causally precede m'?")
//   - concurrency ("are m, m' unordered?"  ==  ||{m, m'})
//   - topological orders (the paper's "allowed sequences" of R(M))
//   - valid-delivery-order checking (test oracle)
//   - DOT export (Figure 3 reproduction)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/dep_spec.h"
#include "graph/message_id.h"

namespace cbc {

/// One node of the dependency graph.
struct GraphNode {
  MessageId id;
  std::string label;            ///< application label, e.g. "inc", "LOCK(1,2)"
  std::vector<MessageId> deps;  ///< direct predecessors (sorted)
};

/// Mutable DAG of message dependencies.
///
/// Insertion order is remembered; all query results are deterministic.
/// Edges may reference ids that have not been inserted yet (a dependency
/// on a message this member has not seen) — such edges are retained and
/// become effective when the node arrives, which is exactly the hold-back
/// situation the delivery engine manages.
///
/// add() costs O(deps): a node that names an absent id is indexed under
/// that id, so a late arrival wires its successors without scanning the
/// graph.
class MessageGraph {
 public:
  MessageGraph() = default;

  /// Inserts a message with its Occurs_After set. Re-inserting the same id
  /// is an error.
  void add(MessageId id, std::string label, const DepSpec& deps);

  [[nodiscard]] bool contains(MessageId id) const;
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Node lookup; nullopt when absent.
  [[nodiscard]] std::optional<GraphNode> node(MessageId id) const;

  /// Direct predecessors of `id` (the Occurs_After conjuncts).
  [[nodiscard]] std::vector<MessageId> direct_deps(MessageId id) const;

  /// Direct successors of `id` among inserted nodes.
  [[nodiscard]] std::vector<MessageId> direct_successors(MessageId id) const;

  /// True when `ancestor` reaches `descendant` through one or more edges
  /// (i.e. ancestor -> descendant in the paper's notation). A node does
  /// not reach itself.
  [[nodiscard]] bool reaches(MessageId ancestor, MessageId descendant) const;

  /// True when neither message causally precedes the other: ||{a, b}.
  [[nodiscard]] bool concurrent(MessageId a, MessageId b) const;

  /// All ancestors of `id` (its causal past), in deterministic order.
  [[nodiscard]] std::vector<MessageId> ancestors(MessageId id) const;

  /// All descendants of `id` (its causal future), in deterministic order.
  [[nodiscard]] std::vector<MessageId> descendants(MessageId id) const;

  /// Nodes with no inserted predecessors.
  [[nodiscard]] std::vector<MessageId> roots() const;

  /// Nodes with no inserted successors.
  [[nodiscard]] std::vector<MessageId> leaves() const;

  /// One deterministic topological order (Kahn's algorithm, insertion-order
  /// tiebreak). Throws LogicError when the graph has a cycle (possible
  /// only if the application names a future message as a dependency in a
  /// crossed pattern — rejected as a specification error).
  [[nodiscard]] std::vector<MessageId> topological_order() const;

  /// Every topological order, up to `cap` sequences (the "allowed
  /// sequences EvSeq_1..EvSeq_L" of §4.1; L can reach (r+1)! so callers
  /// cap it). Deterministic enumeration order.
  [[nodiscard]] std::vector<std::vector<MessageId>> all_topological_orders(
      std::size_t cap = 10000) const;

  /// True when `sequence` is a permutation of the inserted nodes that
  /// respects every edge — i.e. an allowed delivery order of R(M).
  [[nodiscard]] bool is_valid_delivery_order(
      const std::vector<MessageId>& sequence) const;

  /// True when every direct dependency of every node is itself inserted
  /// (no dangling edges): the graph is self-contained.
  [[nodiscard]] bool closed() const;

  /// Graphviz DOT rendering (Figure 3 reproduction; stable node order).
  [[nodiscard]] std::string to_dot(const std::string& graph_name = "R") const;

  /// Insertion order of the node ids.
  [[nodiscard]] std::vector<MessageId> insertion_order() const {
    return order_;
  }

 private:
  struct Entry {
    GraphNode node;
    std::vector<MessageId> successors;  // inserted nodes depending on this
  };

  [[nodiscard]] const Entry* find(MessageId id) const;

  std::unordered_map<MessageId, Entry> nodes_;
  // absent id -> inserted nodes that name it as a dependency
  std::unordered_map<MessageId, std::vector<MessageId>> waiting_on_;
  std::vector<MessageId> order_;  // insertion order
};

}  // namespace cbc
