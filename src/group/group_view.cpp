#include "group/group_view.h"

#include <algorithm>
#include <sstream>

#include "util/ensure.h"

namespace cbc {

GroupView::GroupView(ViewId id, std::vector<NodeId> members)
    : id_(id), members_(std::move(members)) {
  std::sort(members_.begin(), members_.end());
  const auto dup = std::adjacent_find(members_.begin(), members_.end());
  require(dup == members_.end(), "GroupView: duplicate member");
}

bool GroupView::contains(NodeId node) const {
  return std::binary_search(members_.begin(), members_.end(), node);
}

std::optional<std::size_t> GroupView::rank_of(NodeId node) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), node);
  if (it == members_.end() || *it != node) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(it - members_.begin());
}

NodeId GroupView::member_at(std::size_t rank) const {
  require(rank < members_.size(), "GroupView::member_at: rank out of range");
  return members_[rank];
}

std::string GroupView::to_string() const {
  std::ostringstream out;
  out << "view#" << id_ << "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out << ",";
    out << members_[i];
  }
  out << "}";
  return out.str();
}

}  // namespace cbc
