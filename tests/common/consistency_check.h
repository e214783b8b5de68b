// Cross-replica consistency oracles over recorded histories
// (common/recorder.h):
//   - every member delivered the same message set;
//   - each member's delivery order is an allowed sequence of the R(M) its
//     own deliveries describe;
//   - states agree at corresponding stable points wherever coverage was
//     complete at every member.
// They return a structured verdict naming the first divergence, which a
// test can surface directly.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/recorder.h"

namespace cbc::testkit {

/// Verdict of a consistency check; empty problem == consistent.
struct ConsistencyVerdict {
  bool consistent = true;
  std::string problem;  ///< human-readable description of the divergence

  static ConsistencyVerdict ok() { return {}; }
  static ConsistencyVerdict fail(std::string why) {
    return ConsistencyVerdict{false, std::move(why)};
  }
};

/// Checks that every recorder holds exactly the same message set and that
/// each recorded order is valid against the graph its deliveries build.
/// `recorders` is a range of pointers to Recorder.
template <typename RecorderRange>
ConsistencyVerdict check_causal_delivery(const RecorderRange& recorders) {
  std::optional<std::vector<MessageId>> reference;
  std::size_t index = 0;
  for (const auto& recorder_ptr : recorders) {
    const Recorder& recorder = *recorder_ptr;
    std::vector<MessageId> ids = recorder.ids();
    if (!recorder.graph().is_valid_delivery_order(ids)) {
      return ConsistencyVerdict::fail(
          "member " + std::to_string(index) +
          " delivered an order not allowed by its dependency graph");
    }
    std::sort(ids.begin(), ids.end());
    if (!reference.has_value()) {
      reference = std::move(ids);
    } else if (ids != *reference) {
      return ConsistencyVerdict::fail(
          "member " + std::to_string(index) +
          " delivered a different message set than member 0");
    }
    ++index;
  }
  return ConsistencyVerdict::ok();
}

/// Checks stable-point agreement across replicas, one recorder per
/// member: for every cycle where coverage was complete at ALL members, the
/// recorded states must be equal. A member whose recorder holds fewer
/// points than its detector closed fails the check rather than passing it
/// vacuously.
template <typename State>
ConsistencyVerdict check_stable_points(
    const std::vector<std::unique_ptr<ReplicaRecorder<State>>>& members) {
  if (members.empty()) {
    return ConsistencyVerdict::ok();
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i]->points().size() != members[i]->detected_cycles()) {
      return ConsistencyVerdict::fail(
          "member " + std::to_string(i) + " recorded " +
          std::to_string(members[i]->points().size()) + " of its " +
          std::to_string(members[i]->detected_cycles()) + " stable points");
    }
  }
  const std::size_t cycles = members[0]->points().size();
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (members[i]->points().size() != cycles) {
      return ConsistencyVerdict::fail(
          "member " + std::to_string(i) + " saw " +
          std::to_string(members[i]->points().size()) +
          " stable points vs member 0's " + std::to_string(cycles));
    }
  }
  for (std::size_t c = 0; c < cycles; ++c) {
    bool covered_everywhere = true;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const StablePoint& point = members[i]->points()[c];
      if (point.sync_message != members[0]->points()[c].sync_message) {
        return ConsistencyVerdict::fail(
            "cycle " + std::to_string(c) + ": member " + std::to_string(i) +
            " closed on a different sync message than member 0");
      }
      covered_everywhere = covered_everywhere && point.coverage_complete;
    }
    if (!covered_everywhere) {
      continue;  // agreement not promised for uncovered cycles (§5.2)
    }
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (!(members[i]->states()[c] == members[0]->states()[c])) {
        return ConsistencyVerdict::fail(
            "cycle " + std::to_string(c) + ": member " + std::to_string(i) +
            " disagrees with member 0 at a fully covered stable point");
      }
    }
  }
  return ConsistencyVerdict::ok();
}

}  // namespace cbc::testkit
