// Group views: the membership snapshot a broadcast operates in.
//
// The paper organizes "various entities as members of a group" and sends
// every message (plus its causal relations) to all members (§3). A
// GroupView is an immutable, totally-ordered member list with a view id;
// ordering layers address members by their dense *rank* within the view,
// which is what vector-clock widths and deterministic tiebreaks key on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/types.h"

namespace cbc {

/// Identifier of a group view; a group keeps one view for its whole run.
using ViewId = std::uint64_t;

/// Immutable snapshot of group membership. Members are stored sorted by
/// NodeId, so rank(member) is deterministic and identical at all members.
class GroupView {
 public:
  GroupView() = default;

  /// Builds a view; duplicate members are rejected.
  GroupView(ViewId id, std::vector<NodeId> members);

  [[nodiscard]] ViewId id() const { return id_; }
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }

  /// True when `node` is in this view.
  [[nodiscard]] bool contains(NodeId node) const;

  /// Dense index of `node` in the sorted member list.
  /// Returns nullopt when the node is not a member.
  [[nodiscard]] std::optional<std::size_t> rank_of(NodeId node) const;

  /// Member at a given rank (rank < size()).
  [[nodiscard]] NodeId member_at(std::size_t rank) const;

  bool operator==(const GroupView& other) const = default;

  [[nodiscard]] std::string to_string() const;

 private:
  ViewId id_ = 0;
  std::vector<NodeId> members_;
};

}  // namespace cbc
