#include "graph/message_graph.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_set>

#include "util/ensure.h"

namespace cbc {

void MessageGraph::add(MessageId id, std::string label, const DepSpec& deps) {
  require(!id.is_null(), "MessageGraph::add: null id");
  require(!contains(id), "MessageGraph::add: duplicate id");
  Entry entry;
  entry.node.id = id;
  entry.node.label = std::move(label);
  entry.node.deps = deps.ids();
  // Older nodes may have named us as a dependency before we arrived.
  if (const auto waiting = waiting_on_.find(id); waiting != waiting_on_.end()) {
    entry.successors = std::move(waiting->second);
    waiting_on_.erase(waiting);
  }
  // Wire up successor links on already-inserted predecessors; index the
  // absent ones so their arrival wires us.
  for (const MessageId& dep : entry.node.deps) {
    if (dep == id) {
      continue;  // a self-dependency never becomes a successor link
    }
    auto it = nodes_.find(dep);
    if (it != nodes_.end()) {
      it->second.successors.push_back(id);
    } else {
      waiting_on_[dep].push_back(id);
    }
  }
  nodes_.emplace(id, std::move(entry));
  order_.push_back(id);
}

bool MessageGraph::contains(MessageId id) const {
  return nodes_.find(id) != nodes_.end();
}

const MessageGraph::Entry* MessageGraph::find(MessageId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::optional<GraphNode> MessageGraph::node(MessageId id) const {
  const Entry* entry = find(id);
  if (entry == nullptr) {
    return std::nullopt;
  }
  return entry->node;
}

std::vector<MessageId> MessageGraph::direct_deps(MessageId id) const {
  const Entry* entry = find(id);
  require(entry != nullptr, "MessageGraph::direct_deps: unknown id");
  return entry->node.deps;
}

std::vector<MessageId> MessageGraph::direct_successors(MessageId id) const {
  const Entry* entry = find(id);
  require(entry != nullptr, "MessageGraph::direct_successors: unknown id");
  std::vector<MessageId> out = entry->successors;
  std::sort(out.begin(), out.end());
  return out;
}

bool MessageGraph::reaches(MessageId ancestor, MessageId descendant) const {
  if (ancestor == descendant) {
    return false;
  }
  const Entry* start = find(ancestor);
  if (start == nullptr || !contains(descendant)) {
    return false;
  }
  std::unordered_set<MessageId> visited;
  std::deque<MessageId> frontier(start->successors.begin(),
                                 start->successors.end());
  while (!frontier.empty()) {
    const MessageId current = frontier.front();
    frontier.pop_front();
    if (current == descendant) {
      return true;
    }
    if (!visited.insert(current).second) {
      continue;
    }
    const Entry* entry = find(current);
    if (entry != nullptr) {
      frontier.insert(frontier.end(), entry->successors.begin(),
                      entry->successors.end());
    }
  }
  return false;
}

bool MessageGraph::concurrent(MessageId a, MessageId b) const {
  require(contains(a) && contains(b), "MessageGraph::concurrent: unknown id");
  if (a == b) {
    return false;
  }
  return !reaches(a, b) && !reaches(b, a);
}

std::vector<MessageId> MessageGraph::ancestors(MessageId id) const {
  require(contains(id), "MessageGraph::ancestors: unknown id");
  std::unordered_set<MessageId> visited;
  std::deque<MessageId> frontier;
  for (const MessageId& dep : find(id)->node.deps) {
    frontier.push_back(dep);
  }
  std::vector<MessageId> out;
  while (!frontier.empty()) {
    const MessageId current = frontier.front();
    frontier.pop_front();
    if (!contains(current) || !visited.insert(current).second) {
      continue;
    }
    out.push_back(current);
    for (const MessageId& dep : find(current)->node.deps) {
      frontier.push_back(dep);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MessageId> MessageGraph::descendants(MessageId id) const {
  require(contains(id), "MessageGraph::descendants: unknown id");
  std::unordered_set<MessageId> visited;
  std::deque<MessageId> frontier(find(id)->successors.begin(),
                                 find(id)->successors.end());
  std::vector<MessageId> out;
  while (!frontier.empty()) {
    const MessageId current = frontier.front();
    frontier.pop_front();
    if (!visited.insert(current).second) {
      continue;
    }
    out.push_back(current);
    const Entry* entry = find(current);
    if (entry != nullptr) {
      frontier.insert(frontier.end(), entry->successors.begin(),
                      entry->successors.end());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MessageId> MessageGraph::roots() const {
  std::vector<MessageId> out;
  for (const MessageId& id : order_) {
    const Entry& entry = nodes_.at(id);
    const bool has_inserted_dep =
        std::any_of(entry.node.deps.begin(), entry.node.deps.end(),
                    [this](const MessageId& dep) { return contains(dep); });
    if (!has_inserted_dep) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<MessageId> MessageGraph::leaves() const {
  std::vector<MessageId> out;
  for (const MessageId& id : order_) {
    if (nodes_.at(id).successors.empty()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<MessageId> MessageGraph::topological_order() const {
  // Kahn's algorithm; the ready list is kept in insertion order so the
  // result is deterministic.
  const std::vector<MessageId>& order = order_;
  std::unordered_map<MessageId, std::size_t> pending_deps;
  for (const MessageId& id : order) {
    const Entry& entry = nodes_.at(id);
    std::size_t count = 0;
    for (const MessageId& dep : entry.node.deps) {
      if (contains(dep)) {
        ++count;
      }
    }
    pending_deps[id] = count;
  }
  std::vector<MessageId> ready;
  for (const MessageId& id : order) {
    if (pending_deps[id] == 0) {
      ready.push_back(id);
    }
  }
  std::vector<MessageId> out;
  out.reserve(order.size());
  std::size_t cursor = 0;
  while (cursor < ready.size()) {
    const MessageId current = ready[cursor++];
    out.push_back(current);
    std::vector<MessageId> successors = nodes_.at(current).successors;
    std::sort(successors.begin(), successors.end());
    for (const MessageId& next : successors) {
      if (--pending_deps[next] == 0) {
        ready.push_back(next);
      }
    }
  }
  ensure(out.size() == order.size(),
         "MessageGraph::topological_order: dependency cycle detected");
  return out;
}

std::vector<std::vector<MessageId>> MessageGraph::all_topological_orders(
    std::size_t cap) const {
  std::vector<std::vector<MessageId>> results;
  const std::vector<MessageId>& order = order_;
  std::unordered_map<MessageId, std::size_t> pending_deps;
  for (const MessageId& id : order) {
    std::size_t count = 0;
    for (const MessageId& dep : nodes_.at(id).node.deps) {
      if (contains(dep)) {
        ++count;
      }
    }
    pending_deps[id] = count;
  }
  std::vector<MessageId> current;
  current.reserve(order.size());
  std::unordered_set<MessageId> used;

  // Depth-first enumeration over the "ready" frontier; candidates are tried
  // in sorted-id order so the enumeration is deterministic.
  std::function<void()> recurse = [&] {
    if (results.size() >= cap) {
      return;
    }
    if (current.size() == order.size()) {
      results.push_back(current);
      return;
    }
    std::vector<MessageId> candidates;
    for (const MessageId& id : order) {
      if (used.count(id) == 0 && pending_deps[id] == 0) {
        candidates.push_back(id);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const MessageId& id : candidates) {
      used.insert(id);
      current.push_back(id);
      std::vector<std::pair<MessageId, bool>> touched;
      for (const MessageId& next : nodes_.at(id).successors) {
        --pending_deps[next];
      }
      recurse();
      for (const MessageId& next : nodes_.at(id).successors) {
        ++pending_deps[next];
      }
      (void)touched;
      current.pop_back();
      used.erase(id);
      if (results.size() >= cap) {
        return;
      }
    }
  };
  recurse();
  return results;
}

bool MessageGraph::is_valid_delivery_order(
    const std::vector<MessageId>& sequence) const {
  if (sequence.size() != nodes_.size()) {
    return false;
  }
  std::unordered_set<MessageId> seen;
  for (const MessageId& id : sequence) {
    const Entry* entry = find(id);
    if (entry == nullptr || seen.count(id) != 0) {
      return false;
    }
    for (const MessageId& dep : entry->node.deps) {
      if (contains(dep) && seen.count(dep) == 0) {
        return false;  // a declared predecessor was not delivered first
      }
    }
    seen.insert(id);
  }
  return true;
}

bool MessageGraph::closed() const {
  for (const auto& [id, entry] : nodes_) {
    for (const MessageId& dep : entry.node.deps) {
      if (!contains(dep)) {
        return false;
      }
    }
  }
  return true;
}

std::string MessageGraph::to_dot(const std::string& graph_name) const {
  std::ostringstream out;
  out << "digraph " << graph_name << " {\n";
  out << "  rankdir=TB;\n";
  const std::vector<MessageId>& order = order_;
  for (const MessageId& id : order) {
    const Entry& entry = nodes_.at(id);
    out << "  \"" << id.to_string() << "\" [label=\"" << entry.node.label
        << "\\n" << id.to_string() << "\"];\n";
  }
  for (const MessageId& id : order) {
    const Entry& entry = nodes_.at(id);
    for (const MessageId& dep : entry.node.deps) {
      // Edge direction follows the paper's Figure 3: ancestor -> descendant.
      out << "  \"" << dep.to_string() << "\" -> \"" << id.to_string()
          << "\";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace cbc
