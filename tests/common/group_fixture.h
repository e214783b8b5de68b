// Shared fixture: a group of N broadcast members of any discipline over a
// fresh SimEnv transport.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "causal/delivery.h"
#include "common/sim_env.h"

namespace cbc::testkit {

/// MemberT's default options, except that a member which can record its
/// delivery history (OSend: record_graph, keep_delivery_log; ASend:
/// keep_delivery_log) does: the Group checks below and most tests read
/// the whole log() and the graph().
template <typename MemberT>
typename MemberT::Options recording_options() {
  typename MemberT::Options options{};
  if constexpr (requires { options.record_graph; }) {
    options.record_graph = true;
  }
  if constexpr (requires { options.keep_delivery_log; }) {
    options.keep_delivery_log = true;
  }
  return options;
}

/// Constructs N members (ids 0..N-1) of the given member type over a
/// transport. MemberT must be constructible as (Transport&, const
/// GroupView&, DeliverFn, MemberT::Options).
template <typename MemberT>
class Group {
 public:
  Group(Transport& transport, std::size_t n)
      : Group(transport, n, recording_options<MemberT>()) {}

  Group(Transport& transport, std::size_t n, typename MemberT::Options options)
      : view_(make_view(n)) {
    members_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      members_.push_back(std::make_unique<MemberT>(
          transport, view_, [](const Delivery&) {}, options));
    }
  }

  [[nodiscard]] MemberT& operator[](std::size_t i) { return *members_[i]; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] const GroupView& view() const { return view_; }

  /// True when every member's delivery log contains the same message ids
  /// as member 0's (any order).
  [[nodiscard]] bool all_delivered_same_set() const {
    auto sorted_ids = [](const MemberT& member) {
      std::vector<MessageId> ids = delivered_ids(member.log());
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    const auto reference = sorted_ids(*members_[0]);
    for (std::size_t i = 1; i < members_.size(); ++i) {
      if (sorted_ids(*members_[i]) != reference) {
        return false;
      }
    }
    return true;
  }

  /// True when every member delivered in exactly the same sequence.
  [[nodiscard]] bool all_delivered_same_sequence() const {
    const auto reference = delivered_ids(members_[0]->log());
    for (std::size_t i = 1; i < members_.size(); ++i) {
      if (delivered_ids(members_[i]->log()) != reference) {
        return false;
      }
    }
    return true;
  }

 private:
  GroupView view_;
  std::vector<std::unique_ptr<MemberT>> members_;
};

}  // namespace cbc::testkit
