// Protocol event tracing and space-time diagram rendering.
//
// A Trace collects (time, node, kind, detail) events — typically the
// members' deliveries (Delivery::delivered_at) plus protocol-level
// hooks — and renders them as an ASCII space-time diagram (one column
// per node, time flowing down), the visual language of the paper's
// Figures 2 and 5. Benches and
// examples use it to print faithful scenario traces; tests use it to
// assert event ordering compactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace cbc::sim {

/// Kind of traced event (affects diagram glyphs).
enum class TraceKind : std::uint8_t {
  kSend,     ///< a broadcast/unicast was initiated
  kDeliver,  ///< a message was delivered to the application
  kMark,     ///< protocol milestone (stable point, view install, grant...)
};

/// One traced event.
struct TraceEvent {
  SimTime at = 0;
  NodeId node = kNoNode;
  TraceKind kind = TraceKind::kMark;
  std::string detail;
};

/// Append-only event trace with rendering helpers.
class Trace {
 public:
  /// Records one event (events need not arrive in time order; rendering
  /// sorts stably).
  void record(SimTime at, NodeId node, TraceKind kind, std::string detail);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// Events at one node, in time order.
  [[nodiscard]] std::vector<TraceEvent> at_node(NodeId node) const;

  /// True when an event with `detail_substring` at `before_node` precedes
  /// (in time) one with `after_substring` at `after_node`.
  [[nodiscard]] bool happens_before(NodeId before_node,
                                    const std::string& detail_substring,
                                    NodeId after_node,
                                    const std::string& after_substring) const;

  /// ASCII space-time diagram: one column per node 0..node_count-1, one
  /// row per event, time down the left margin. Glyphs: `*` send,
  /// `o` deliver, `#` mark.
  [[nodiscard]] std::string render(std::size_t node_count,
                                   std::size_t column_width = 22) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace cbc::sim
