// Cross-replica consistency oracles.
//
// Test- and operations-facing utilities that check the paper's agreement
// properties over concrete replica groups:
//   - delivery logs are permutations of each other (same message set);
//   - each member's delivery order is an allowed sequence of its R(M);
//   - states agree at corresponding stable points wherever coverage was
//     complete at every member.
// They return a structured verdict naming the first divergence, which the
// test suite and any monitoring harness can surface directly.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "activity/stable_point.h"
#include "causal/osend.h"

namespace cbc {

/// Verdict of a consistency check; empty problem == consistent.
struct ConsistencyVerdict {
  bool consistent = true;
  std::string problem;  ///< human-readable description of the divergence

  static ConsistencyVerdict ok() { return {}; }
  static ConsistencyVerdict fail(std::string why) {
    return ConsistencyVerdict{false, std::move(why)};
  }
};

/// Checks that every member delivered exactly the same message set and
/// that each member's order is valid against its own observed graph.
template <typename MemberRange>
ConsistencyVerdict check_causal_delivery(const MemberRange& members) {
  std::optional<std::vector<MessageId>> reference;
  std::size_t index = 0;
  for (const auto& member_ptr : members) {
    const OSendMember& member = *member_ptr;
    std::vector<MessageId> ids = delivered_ids(member.log());
    if (!member.graph().is_valid_delivery_order(ids)) {
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

/// Checks stable-point agreement across detectors+snapshots: for every
/// cycle where coverage was complete at ALL members, the snapshots must
/// be equal. `snapshots_of(i)` returns the i-th member's stable_history();
/// `detector_of(i)` its StablePointDetector. Both are histories a replica
/// keeps only on request (ReplicaNode::Options::keep_stable_history); a
/// member that closed cycles without keeping them fails the check rather
/// than passing it vacuously.
template <typename SnapshotsFn, typename DetectorFn>
ConsistencyVerdict check_stable_points(std::size_t member_count,
                                       SnapshotsFn&& snapshots_of,
                                       DetectorFn&& detector_of) {
  if (member_count == 0) {
    return ConsistencyVerdict::ok();
  }
  for (std::size_t i = 0; i < member_count; ++i) {
    if (detector_of(i).history().size() != detector_of(i).cycles()) {
      return ConsistencyVerdict::fail(
          "member " + std::to_string(i) +
          " kept no stable-point history (keep_stable_history is off)");
    }
  }
  const std::size_t cycles = detector_of(0).history().size();
  for (std::size_t i = 1; i < member_count; ++i) {
    if (detector_of(i).history().size() != cycles) {
      return ConsistencyVerdict::fail(
          "member " + std::to_string(i) + " saw " +
          std::to_string(detector_of(i).history().size()) +
          " stable points vs member 0's " + std::to_string(cycles));
    }
  }
  for (std::size_t c = 0; c < cycles; ++c) {
    bool covered_everywhere = true;
    for (std::size_t i = 0; i < member_count; ++i) {
      const StablePoint& point = detector_of(i).history()[c];
      if (point.sync_message != detector_of(0).history()[c].sync_message) {
        return ConsistencyVerdict::fail(
            "cycle " + std::to_string(c) + ": member " + std::to_string(i) +
            " closed on a different sync message than member 0");
      }
      covered_everywhere = covered_everywhere && point.coverage_complete;
    }
    if (!covered_everywhere) {
      continue;  // agreement not promised for uncovered cycles (§5.2)
    }
    for (std::size_t i = 1; i < member_count; ++i) {
      if (!(snapshots_of(i)[c] == snapshots_of(0)[c])) {
        return ConsistencyVerdict::fail(
            "cycle " + std::to_string(c) + ": member " + std::to_string(i) +
            " disagrees with member 0 at a fully covered stable point");
      }
    }
  }
  return ConsistencyVerdict::ok();
}

}  // namespace cbc
