// InvariantChecker — a ProtocolLayer that mechanically verifies the
// paper's correctness claims on a live delivery stream.
//
// Attach one checker per member (wrapping any BroadcastMember) and share
// one ViolationLog across the group, normally via InvariantMonitor. On
// every delivery the checker asserts, against its own record of what this
// member has delivered:
//
//   - Occurs_After precedence: every id in the message's dependency set
//     was already delivered locally (§3.1 — the causal delivery rule);
//   - no duplicate delivery of any message id;
//
// and it accumulates the state needed for the quiescence-time checks run
// by InvariantMonitor::check_quiescent():
//
//   - no-gap delivery: each sender's delivered seqs form 1..max with no
//     holes (reliability masked every loss);
//   - identical delivered message *set* at every member;
//   - identical delivered *sequence* at every member when the wrapped
//     discipline promises total order (ASend arbitration — eq. 5);
//   - stable-point agreement (§4.1, §6.1): same sync-message chain, and an
//     order-insensitive state digest per cycle that must match across
//     members — "identical state with no agreement protocol".
//
// Violations are recorded, never thrown: one schedule reports every
// breakage it exhibits, which is what the schedule explorer minimizes on.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "activity/commutativity.h"
#include "activity/stable_point.h"
#include "check/violation.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "stack/protocol_layer.h"
#include "util/prefix_seq_set.h"

namespace cbc::check {

/// Per-member online invariant checker (see file comment).
class InvariantChecker final : public ProtocolLayer {
 public:
  struct Options {
    bool check_dependencies = true;  ///< Occurs_After precedence per delivery
    bool check_duplicates = true;    ///< no message delivered twice
    /// The wrapped discipline promises one identical delivery sequence at
    /// every member (ASend, sequencer); the monitor then compares full
    /// sequences, not just sets.
    bool expect_total_order = false;
    /// When set, deliveries feed a StablePointDetector and the monitor
    /// compares stable-point histories and state digests across members.
    std::optional<CommutativitySpec> stable_spec;
    /// Label kinds excluded from the stable digest (still checked for
    /// dependencies/duplicates and fed to the detector). Use for
    /// state-inert ops whose delivery is NOT ordered relative to the sync
    /// chain — e.g. a departure marker racing an in-flight sync lands in
    /// cycle k at one member and cycle k+1 at another, so folding it into
    /// the digest would report divergence where states actually agree.
    std::set<std::string> digest_exempt_kinds;
    /// Observability sinks: delivery/violation/stable-point counters.
    /// Default: off. Each closed cycle is also journaled as a
    /// kStablePoint flight record (a `stable_point` trace instant).
    obs::Hooks obs{};
  };

  InvariantChecker(std::unique_ptr<BroadcastMember> lower,
                   std::shared_ptr<ViolationLog> log, Options options);

  /// Message ids in local delivery order (never pruned; checker-owned).
  /// The record itself is kept in fixed-size chunks, so a delivery never
  /// reallocates or copies O(history) memory; this contiguous view of it
  /// catches up with the record on each call.
  [[nodiscard]] const std::vector<MessageId>& delivered_sequence() const;

  /// delivered_sequence().size(), without bringing the view up to date.
  [[nodiscard]] std::size_t delivered_count() const {
    return sequence_.size();
  }

  /// Stable points detected so far (empty unless stable_spec was given).
  [[nodiscard]] const std::vector<StablePoint>& stable_history() const;

  /// Order-insensitive state digest per closed cycle: commutative messages
  /// of the cycle fold in XOR (order must not matter), chained through the
  /// closing sync message. Equal digests at equal cycles == state
  /// agreement at the stable point.
  [[nodiscard]] const std::vector<std::uint64_t>& stable_digests() const {
    return stable_digests_;
  }

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::size_t violation_count() const { return local_violations_; }

  /// Per-member quiescence check: every delivered sender's seqs must be
  /// contiguous from 1 (no-gap; from the restored floor after recovery).
  /// Called by InvariantMonitor.
  void check_no_gaps();

  /// Seeds the checker from a transferred checkpoint (crash recovery):
  /// `digests` becomes the stable digest chain (the next closed cycle
  /// chains off its tail), and deliveries at or below `baseline_floor`
  /// (per-sender seq) are treated as already seen — dependencies on them
  /// are satisfied and the no-gap check starts above the floor. Must be
  /// called before any delivery flows through this checker.
  void restore(std::vector<std::uint64_t> digests,
               std::map<NodeId, SeqNo> baseline_floor);

 protected:
  void on_lower_delivery(const Delivery& delivery) override;

 private:
  void record(ViolationKind kind, MessageId message, std::string detail);
  [[nodiscard]] bool seen(MessageId message) const;

  std::shared_ptr<ViolationLog> log_;
  Options options_;
  std::deque<MessageId> sequence_;
  mutable std::vector<MessageId> sequence_view_;  // delivered_sequence()
  // Per-sender seqs delivered here; restore() seeds each floor with the
  // baseline the pre-crash incarnation (or the checkpoint) covered.
  std::map<NodeId, PrefixSeqSet> seen_;
  std::optional<StablePointDetector> detector_;
  std::vector<std::uint64_t> stable_digests_;
  std::uint64_t open_cycle_acc_ = 0;  ///< XOR of open-cycle message hashes
  std::uint64_t digest_chain_ = 0;    ///< digest after the last stable point
  std::size_t local_violations_ = 0;
  obs::Counter* deliveries_counter_ = nullptr;
  obs::Counter* violations_counter_ = nullptr;
  obs::Counter* stable_points_counter_ = nullptr;
};

/// Group-level aggregation: wraps members in checkers sharing one log and
/// runs the cross-member checks at quiescence.
class InvariantMonitor {
 public:
  InvariantMonitor() : InvariantMonitor(InvariantChecker::Options{}) {}
  explicit InvariantMonitor(InvariantChecker::Options default_options);

  /// Wraps `lower` in a checker registered with this monitor. The caller
  /// owns the returned checker and must keep it alive as long as the
  /// monitor is used.
  [[nodiscard]] std::unique_ptr<InvariantChecker> attach(
      std::unique_ptr<BroadcastMember> lower);
  [[nodiscard]] std::unique_ptr<InvariantChecker> attach(
      std::unique_ptr<BroadcastMember> lower,
      InvariantChecker::Options options);

  [[nodiscard]] const std::shared_ptr<ViolationLog>& log() const {
    return log_;
  }

  /// Runs every quiescence-time check across the registered members:
  /// per-member no-gap, same delivered set, identical sequence when total
  /// order was promised, stable-point agreement when a spec was given.
  /// Returns true when the log is still empty afterwards.
  bool check_quiescent();

  /// The full violation report (empty when clean).
  [[nodiscard]] std::string report() const { return log_->report(); }

 private:
  std::shared_ptr<ViolationLog> log_;
  InvariantChecker::Options default_options_;
  std::vector<InvariantChecker*> checkers_;
};

}  // namespace cbc::check
