// Stable-point detection from a delivery stream (paper §4.1, §5.1, §6.1).
//
// The §6.1 access protocol structures traffic as repeating causal
// activities:
//
//   rqst_nc(r-1)  →  ||{ rqst_c(r,k) } k=1..f̄  →  rqst_nc(r)
//
// A replica detects the stable point for cycle r *locally*: the moment the
// next non-commutative message is delivered, because causal delivery
// guarantees every commutative message the sync message depends on was
// delivered first. No agreement round is needed — this is the paper's
// central performance claim (bench C3 quantifies it).
//
// The detector also audits *coverage*: the sync message's Occurs_After set
// should include every open commutative message this member has seen.
// When clients race (or dependency knowledge is incomplete, §5.2), a sync
// message may close a cycle without covering everything — agreement at
// that point is then not guaranteed, and the detector flags it so the
// application layer (src/appcons) can compensate.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "activity/commutativity.h"
#include "causal/delivery.h"
#include "graph/message_id.h"

namespace cbc {

/// One detected stable point (close of one causal activity).
struct StablePoint {
  std::uint64_t cycle = 0;             ///< 1-based processing-cycle index r
  MessageId sync_message;              ///< the closing non-commutative msg
  std::string sync_label;              ///< its label
  std::vector<MessageId> commutative_set;  ///< ||{rqst_c} of this cycle
  bool coverage_complete = false;      ///< sync deps covered the whole set
  SimTime at = 0;                      ///< delivery time of the sync msg
};

/// Per-member stable-point tracker. Feed it every Delivery (in the local
/// delivery order); it fires the callback at each stable point. It keeps
/// only the last point, so its state is the open cycle however long the
/// run; a caller that wants every point collects them in the callback.
class StablePointDetector {
 public:
  using StablePointFn = std::function<void(const StablePoint&)>;

  /// `spec` classifies operations; `on_stable` may be empty (query-only);
  /// the point it receives is last(), overwritten at the next stable
  /// point.
  StablePointDetector(CommutativitySpec spec, StablePointFn on_stable);

  /// Processes one delivered message.
  void on_delivery(const Delivery& delivery);

  /// Resumes at the stable point a snapshot was taken at (crash
  /// recovery): `last_sync` closed the cycle the snapshot ends, and the
  /// next one opens empty. last() then names only that sync message;
  /// cycles() is left as it is.
  void restore(MessageId last_sync);

  /// The operation classification this detector was built with.
  [[nodiscard]] const CommutativitySpec& spec() const { return spec_; }

  /// Index of the cycle currently being accumulated (1-based; cycle 1 is
  /// open before the first sync message closes it).
  [[nodiscard]] std::uint64_t open_cycle() const { return cycle_ + 1; }

  /// Commutative messages delivered since the last stable point ({Cid}).
  [[nodiscard]] const std::vector<MessageId>& open_set() const {
    return open_set_;
  }

  /// The sync message that closed the last cycle; null before the first.
  [[nodiscard]] MessageId last_sync() const {
    return last_.has_value() ? last_->sync_message : MessageId::null();
  }

  /// Stable points closed so far.
  [[nodiscard]] std::uint64_t cycles() const { return cycle_; }

  /// The most recent stable point (empty before the first).
  [[nodiscard]] const std::optional<StablePoint>& last() const {
    return last_;
  }

  /// True when the last delivered message closed a cycle, i.e. the state
  /// right now is a stable point (agreed at all members once their
  /// detectors reach the same message).
  [[nodiscard]] bool at_stable_point() const { return at_stable_point_; }

 private:
  CommutativitySpec spec_;
  StablePointFn on_stable_;
  std::uint64_t cycle_ = 0;            // completed cycles
  std::vector<MessageId> open_set_;    // commutative msgs in the open cycle
  bool at_stable_point_ = true;        // initial state counts as stable
  std::optional<StablePoint> last_;
};

}  // namespace cbc
