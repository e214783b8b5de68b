// Structured invariant-violation records.
//
// The check subsystem never asserts with abort(): every broken invariant
// becomes a Violation appended to a shared ViolationLog, so a single run
// (or one explored schedule) can report *all* breakages with enough
// context to reproduce them — which member, which message, what was
// expected. Tests and the schedule explorer fail on a non-empty log.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "graph/message_id.h"
#include "util/types.h"

namespace cbc::check {

/// Category of a broken paper invariant.
enum class ViolationKind {
  kDependencyViolation,  ///< delivered before an Occurs_After predecessor
  kDuplicateDelivery,    ///< same message delivered twice at one member
  kSenderGap,            ///< a sender's seq range has a hole at quiescence
  kSetDivergence,        ///< members delivered different message sets
  kOrderDivergence,      ///< total-order members delivered different orders
  kStableDivergence,     ///< stable-point histories or states disagree
};

/// Short stable name of a kind ("dependency", "duplicate", ...).
[[nodiscard]] std::string_view to_string(ViolationKind kind);

/// One observed violation, bound to the member and message involved.
struct Violation {
  ViolationKind kind;
  NodeId member = kNoNode;   ///< member that observed the breakage
  MessageId message;         ///< offending message (null when group-level)
  std::string detail;        ///< human-readable specifics

  [[nodiscard]] std::string to_string() const;
};

/// Append-only collection of violations, shared by every checker of one
/// group. Not thread-safe: each checker adds under its own member's stack
/// lock, so a group sharing one log delivers on one thread (the simulator
/// or one event loop, with no second thread submitting); group-level
/// checks run at quiescence.
class ViolationLog {
 public:
  void add(ViolationKind kind, NodeId member, MessageId message,
           std::string detail);

  [[nodiscard]] bool empty() const { return violations_.empty(); }
  [[nodiscard]] std::size_t size() const { return violations_.size(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

  /// Multi-line report of every violation (empty string when clean).
  [[nodiscard]] std::string report() const;

  void clear() { violations_.clear(); }

 private:
  std::vector<Violation> violations_;
};

}  // namespace cbc::check
