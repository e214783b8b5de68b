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
// Retained state is the open cycle, not the run. Every member agrees on
// the state at a stable point without any agreement protocol (§4.1), so
// that point's chained digest stands in for everything delivered before
// it: at each stable point the checker drops its delivery record and
// keeps per-sender seq sets, counts, an order-insensitive set hash, a
// rolling order digest and the newest chain digests (a DigestWindow). The
// monitor compares those. Without a stable spec nothing is dropped, and
// the report names the first diverging id or position.
//
// Violations are recorded, never thrown: one schedule reports every
// breakage it exhibits, which is what the schedule explorer minimizes on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "activity/commutativity.h"
#include "check/violation.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "stack/protocol_layer.h"
#include "util/digest_window.h"
#include "util/prefix_seq_set.h"

namespace cbc::check {

/// Per-member online invariant checker (see file comment).
class InvariantChecker final : public ProtocolLayer {
 public:
  struct Options {
    /// The wrapped discipline promises one identical delivery sequence at
    /// every member (ASend, sequencer); the monitor then compares delivery
    /// order (an order digest), not just sets.
    bool expect_total_order = false;
    /// When set, non-commutative deliveries close stable cycles: the
    /// checker chains their state digests, drops its delivery record at
    /// each one, and the monitor compares digests across members.
    std::optional<CommutativitySpec> stable_spec;
    /// Label kinds excluded from the stable digest (still checked for
    /// dependencies/duplicates). Use for state-inert ops whose delivery
    /// is NOT ordered relative to the sync
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

  /// Message ids in local delivery order since the last stable point: the
  /// open cycle's tail. Without a stable spec, the whole run.
  [[nodiscard]] const std::vector<MessageId>& delivered_sequence() const {
    return tail_;
  }

  /// Deliveries so far (those dropped at stable points included).
  [[nodiscard]] std::size_t delivered_count() const {
    return dropped_ + tail_.size();
  }

  /// True while delivered_sequence() still holds every delivery.
  [[nodiscard]] bool record_complete() const { return dropped_ == 0; }

  /// Order-insensitive hash of the delivered id multiset.
  [[nodiscard]] std::uint64_t delivered_set_hash() const { return set_hash_; }

  /// Rolling digest of the delivered id sequence.
  [[nodiscard]] std::uint64_t delivery_order_digest() const {
    return order_digest_;
  }

  /// Order-insensitive state digest per closed cycle: commutative messages
  /// of the cycle fold in XOR (order must not matter), chained through the
  /// closing sync message. Equal digests at equal cycles == state
  /// agreement at the stable point. Each digest folds every earlier one,
  /// so only the newest DigestWindow::kCapacity are kept; the last one
  /// ends cycle stable_cycles().
  [[nodiscard]] const std::vector<std::uint64_t>& stable_digests() const {
    return stable_digests_;
  }

  /// Stable cycles closed, restored ones included: the report's
  /// digest_count, the kStablePoint record's argument, Checkpoint::cycles.
  [[nodiscard]] std::uint64_t stable_cycles() const { return stable_cycles_; }

  /// stable_digests() as the window of cycles ending at stable_cycles()
  /// (a view, valid until the next stable point).
  [[nodiscard]] DigestWindow stable_window() const {
    return {stable_cycles_, stable_digests_};
  }

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::size_t violation_count() const { return local_violations_; }

  /// Per-member quiescence check: every delivered sender's seqs must be
  /// contiguous from 1 (no-gap; from the restored floor after recovery).
  /// Called by InvariantMonitor.
  void check_no_gaps();

  /// Seeds the checker from a transferred checkpoint (crash recovery):
  /// `digests`, the newest part of the stable digest chain ending at
  /// cycle `cycles`, becomes the chain (the next closed cycle chains off
  /// its tail), and deliveries at or below `baseline_floor` (per-sender
  /// seq) are treated as already seen — dependencies on them are
  /// satisfied and the no-gap check starts above the floor. Must be
  /// called before any delivery flows through this checker.
  void restore(std::uint64_t cycles, std::vector<std::uint64_t> digests,
               std::map<NodeId, SeqNo> baseline_floor);
  /// restore() from a whole chain (cycles == digests.size()).
  void restore(std::vector<std::uint64_t> digests,
               std::map<NodeId, SeqNo> baseline_floor) {
    const std::uint64_t cycles = digests.size();
    restore(cycles, std::move(digests), std::move(baseline_floor));
  }

 protected:
  void on_lower_delivery(const Delivery& delivery) override;

 private:
  void record(ViolationKind kind, MessageId message, std::string detail);
  [[nodiscard]] bool seen(MessageId message) const;
  void close_cycle(const Delivery& sync);

  std::shared_ptr<ViolationLog> log_;
  Options options_;
  std::vector<MessageId> tail_;  // delivered_sequence()
  std::size_t dropped_ = 0;      // deliveries folded into the chain
  std::uint64_t set_hash_ = 0;
  std::uint64_t order_digest_ = 0;
  // Per-sender seqs delivered here; restore() seeds each floor with the
  // baseline the pre-crash incarnation (or the checkpoint) covered.
  std::map<NodeId, PrefixSeqSet> seen_;
  std::vector<std::uint64_t> stable_digests_;
  std::uint64_t stable_cycles_ = 0;
  std::uint64_t open_cycle_acc_ = 0;  ///< XOR of open-cycle message hashes
  std::uint64_t digest_chain_ = 0;    ///< digest after the last stable point
  std::size_t local_violations_ = 0;
  obs::Counter* deliveries_counter_ = nullptr;
  obs::Counter* violations_counter_ = nullptr;
  obs::Counter* stable_points_counter_ = nullptr;
  // Last member: unregisters before the state it reads is torn down.
  obs::CollectorHandle collector_;
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
  /// per-member no-gap; same delivered set (count and set hash); the same
  /// sequence when total order was promised (count and order digest);
  /// and, when a spec was given, the same stable-cycle count and digests
  /// over the window both members keep. Where both records are complete
  /// the report names the first diverging id or position. Returns true
  /// when the log is still empty afterwards.
  bool check_quiescent();

  /// The full violation report (empty when clean).
  [[nodiscard]] std::string report() const { return log_->report(); }

 private:
  void check_sets();
  void check_orders();
  void check_stable_points();

  std::shared_ptr<ViolationLog> log_;
  InvariantChecker::Options default_options_;
  std::vector<InvariantChecker*> checkers_;
};

}  // namespace cbc::check
