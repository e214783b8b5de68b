// Shared fixture: a group of N broadcast members of any discipline over a
// fresh SimEnv transport, each recorded through its deliver callback.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "causal/delivery.h"
#include "common/recorder.h"
#include "common/sim_env.h"

namespace cbc::testkit {

/// Constructs N members (ids 0..N-1) of the given member type over a
/// transport. MemberT must be constructible as (Transport&, const
/// GroupView&, DeliverFn, MemberT::Options).
template <typename MemberT>
class Group {
 public:
  Group(Transport& transport, std::size_t n)
      : Group(transport, n, typename MemberT::Options{}) {}

  Group(Transport& transport, std::size_t n, typename MemberT::Options options)
      : view_(make_view(n)) {
    recorders_.reserve(n);
    members_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      recorders_.push_back(std::make_unique<Recorder>());
      members_.push_back(std::make_unique<MemberT>(
          transport, view_, recorders_.back()->tap(), options));
    }
  }

  [[nodiscard]] MemberT& operator[](std::size_t i) { return *members_[i]; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] const GroupView& view() const { return view_; }

  /// Member i's deliveries, in its delivery order.
  [[nodiscard]] const Recorder& recorder(std::size_t i) const {
    return *recorders_[i];
  }
  [[nodiscard]] const std::vector<Delivery>& log(std::size_t i) const {
    return recorders_[i]->log();
  }

  /// R(M) as member i observed it.
  [[nodiscard]] MessageGraph graph(std::size_t i) const {
    return recorders_[i]->graph();
  }

  /// True when every member delivered the same message ids as member 0
  /// (any order).
  [[nodiscard]] bool all_delivered_same_set() const {
    auto sorted_ids = [](const Recorder& recorder) {
      std::vector<MessageId> ids = recorder.ids();
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    const auto reference = sorted_ids(*recorders_[0]);
    for (std::size_t i = 1; i < recorders_.size(); ++i) {
      if (sorted_ids(*recorders_[i]) != reference) {
        return false;
      }
    }
    return true;
  }

  /// True when every member delivered in exactly the same sequence.
  [[nodiscard]] bool all_delivered_same_sequence() const {
    const auto reference = recorders_[0]->ids();
    for (std::size_t i = 1; i < recorders_.size(); ++i) {
      if (recorders_[i]->ids() != reference) {
        return false;
      }
    }
    return true;
  }

 private:
  GroupView view_;
  // Declared before members_, so every member is gone before its tap's
  // recorder is.
  std::vector<std::unique_ptr<Recorder>> recorders_;
  std::vector<std::unique_ptr<MemberT>> members_;
};

}  // namespace cbc::testkit
