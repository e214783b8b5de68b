// The set of sequence numbers one sender has had delivered, sized by its
// holes rather than by its length: the contiguous run 1..floor() is one
// integer, and only the members above it are stored. While a sender's
// messages arrive (nearly) in order the set stays O(1), however long the
// run — the trick OSend's delivered membership and the invariant
// checker's seen/gap bookkeeping share.
#pragma once

#include <set>

#include "util/types.h"

namespace cbc {

/// Sequence numbers held as a contiguous prefix 1..floor() plus the
/// members above it (each of which sits past a hole).
class PrefixSeqSet {
 public:
  [[nodiscard]] SeqNo floor() const { return floor_; }

  /// Members above the floor, ascending; empty when there is no hole.
  [[nodiscard]] const std::set<SeqNo>& above() const { return above_; }

  [[nodiscard]] bool contains(SeqNo seq) const {
    return seq <= floor_ || above_.count(seq) != 0;
  }

  /// Adds `seq`, folding into the prefix any members it now reaches.
  void insert(SeqNo seq) {
    if (seq == floor_ + 1) {
      floor_ = seq;
      absorb();
    } else if (seq > floor_) {
      above_.insert(seq);
    }
  }

  /// Adds every seq up to `floor` (a baseline adopted at recovery).
  void raise_floor(SeqNo floor) {
    if (floor <= floor_) {
      return;
    }
    floor_ = floor;
    above_.erase(above_.begin(), above_.upper_bound(floor));
    absorb();
  }

 private:
  void absorb() {
    while (!above_.empty() && *above_.begin() == floor_ + 1) {
      above_.erase(above_.begin());
      ++floor_;
    }
  }

  SeqNo floor_ = 0;
  std::set<SeqNo> above_;
};

}  // namespace cbc
