// OSend: causal broadcasting with explicit Occurs_After dependencies.
//
// This is the paper's primary communication construct (§3.1, §3.3). A
// member broadcasts `OSend(Msg, group, Occurs_After(m1 ∧ m2 ∧ ...))`; every
// member (including the sender) delivers Msg only after all named
// predecessors have been delivered locally. Unlike vector-clock CBCAST,
// *only* the dependencies the application names are enforced — the
// "semantic ordering" stance of the paper (footnote 1, citing Cheriton &
// Skeen): incidental transport-level ordering is not promoted to a
// constraint, which yields strictly fewer hold-backs (bench C1).
//
// Each member also maintains:
//  - a stability MatrixClock from piggybacked delivered-prefix vectors, so
//    a member can tell when a message is known delivered everywhere
//    without extra message rounds;
//  - on request (Options::record_graph), the MessageGraph of R(M) as
//    observed (identical at all members up to insertion order — the
//    "stable form of the graph", §3.2).
// By default nothing is retained per delivered message: delivered
// membership is a per-sender contiguous prefix plus the few seqs
// delivered above it, so per-delivery work is O(deps) and retained state
// does not grow with the length of the run.
//
// Wire layout: [u64 view_id][VectorClock delivered_prefix][envelope
// section] — the prelude is OSend-specific, the section is the shared
// Envelope codec (causal/envelope.h). A broadcast encodes ONE frame shared
// by every destination and by the sender's self-delivery; receivers parse
// in place and hold-back/log entries alias the same frame.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "causal/delivery.h"
#include "causal/envelope.h"
#include "graph/message_graph.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "group/group_view.h"
#include "stack/view_sync.h"
#include "time/matrix_clock.h"
#include "time/vector_clock.h"
#include "transport/reliable.h"
#include "transport/transport.h"
#include "util/prefix_seq_set.h"
#include "util/thread_annotations.h"

namespace cbc {

/// One group member speaking the OSend protocol.
///
/// Construction registers a transport endpoint; construct all members of a
/// group before the first osend(). Not thread-safe per instance (each
/// member's handler already runs serially under both transports).
class OSendMember final : public ViewSyncMember {
 public:
  struct Options {
    /// Reliability layer configuration (pass-through by default; enable
    /// when the transport drops or duplicates).
    ReliableEndpoint::Options reliability{.enabled = false};
    /// When true, every delivered message is added to the local
    /// MessageGraph (O(history) memory unless prune_stable() runs; for
    /// tests, benches and examples that inspect graph()).
    bool record_graph = false;
    /// When true, log() keeps every delivery; when false it holds only
    /// the most recent one.
    bool keep_delivery_log = false;
    /// Observability sinks: OrderingStats collector + holdback gauge, a
    /// causal-hold-time histogram, and per-envelope submit/deliver spans
    /// with Occurs_After flow edges. Default: off.
    obs::Hooks obs{};
  };

  /// `transport` must outlive the member; the view is copied (the member
  /// owns its current view — see install_view()). The member's node id is
  /// assigned by the transport and must be a member of `view` — i.e.
  /// register members in ascending view order.
  OSendMember(Transport& transport, const GroupView& view, DeliverFn deliver)
      : OSendMember(transport, view, std::move(deliver), Options{}) {}
  OSendMember(Transport& transport, const GroupView& view, DeliverFn deliver,
              Options options);

  [[nodiscard]] NodeId id() const override { return endpoint_.id(); }

  /// The OSend primitive. Dependencies may name messages this member has
  /// not yet seen (they are enforced as hold-back at every receiver).
  MessageId broadcast(std::string label, std::vector<std::uint8_t> payload,
                      const DepSpec& deps) override;

  /// Convenience spelled like the paper: OSend(label, payload,
  /// Occurs_After(m)).
  MessageId osend(std::string label, std::vector<std::uint8_t> payload,
                  const DepSpec& deps) {
    return broadcast(std::move(label), std::move(payload), deps);
  }

  [[nodiscard]] const std::vector<Delivery>& log() const override {
    return log_;
  }
  [[nodiscard]] const OrderingStats& stats() const override { return stats_; }

  /// Rebinds the upward delivery callback (stack splicing).
  void set_deliver(DeliverFn deliver) override;

  /// Number of messages currently held back waiting for dependencies.
  [[nodiscard]] std::size_t holdback_depth() const {
    const LockGuard guard(mutex_);
    return pending_.size();
  }

  /// Locally observed message dependency graph R(M) (empty unless
  /// Options::record_graph).
  [[nodiscard]] const MessageGraph& graph() const { return graph_; }

  /// Contiguous delivered prefix per sender (rank-indexed by view).
  [[nodiscard]] const VectorClock& delivered_prefix() const override {
    return delivered_prefix_;
  }

  /// This member's knowledge of everyone's delivered prefixes.
  [[nodiscard]] const MatrixClock& knowledge() const { return knowledge_; }

  /// True when `id` is known to have been delivered at every member
  /// (conservative: based on contiguous prefixes from piggybacked acks).
  [[nodiscard]] bool is_stable(MessageId message) const;

  /// True when this member has delivered `message` (including messages
  /// already pruned below the stable floor).
  [[nodiscard]] bool has_delivered(MessageId message) const;

  /// Garbage-collects bookkeeping for messages known delivered everywhere
  /// (at or below the MatrixClock stable cut): the stable floor rises to
  /// the cut and, when record_graph is set, their nodes leave the graph.
  /// No ordering decision can ever consult a stable message again (any
  /// dependency on it is satisfied by the delivered prefix), so this is
  /// safe at any time. Returns the number of messages pruned.
  std::size_t prune_stable();

  /// Per-sender floor (rank-indexed): everything at or below it has been
  /// pruned by prune_stable().
  [[nodiscard]] const VectorClock& stable_floor() const {
    return stable_floor_;
  }

  // --- Dynamic membership (used by FlushCoordinator; see causal/flush.h).

  void install_view(const GroupView& new_view) override;
  void adopt_baseline(const VectorClock& baseline) override;

  /// Blocks application broadcasts (labels not starting with "__vc")
  /// while a view change is flushing; system traffic still flows.
  void suspend_sends() override { sends_suspended_ = true; }
  void resume_sends() override { sends_suspended_ = false; }
  [[nodiscard]] bool sends_suspended() const override {
    return sends_suspended_;
  }

  [[nodiscard]] const GroupView& view() const override { return view_; }

  // --- Robustness hooks (failure detection and crash recovery).

  /// Peers currently suspected by the reliability layer's heartbeat
  /// detector (empty unless Options::reliability.suspect_after_us > 0).
  [[nodiscard]] std::vector<NodeId> suspected_peers() const override {
    return endpoint_.suspected_peers();
  }

  /// Sends an out-of-band frame (no seq, no retransmission) to one peer —
  /// the carrier for state-transfer responses during crash recovery.
  void send_oob(NodeId to, std::span<const std::uint8_t> payload) {
    endpoint_.send_oob(to, payload);
  }

  /// True when the reliability layer holds no unacknowledged frames — the
  /// quiesce gate a member must pass before it may be crashed without
  /// orphaning messages at the survivors.
  [[nodiscard]] bool reliable_quiescent() const {
    return endpoint_.unacked_total() == 0;
  }

  /// Caps the cumulative acks advertised for `peer`'s data frames at its
  /// first `ceiling` broadcasts. The sender's i-th broadcast rides link
  /// seq i (the lockstep invariant adopt_baseline also relies on), so a
  /// checkpointing node that advances the ceiling to each flushed
  /// frontier entry never acknowledges a frame its own checkpoint does
  /// not cover — the senders keep retaining exactly what a restored
  /// incarnation will need retransmitted.
  void set_ack_ceiling(NodeId peer, SeqNo ceiling) {
    endpoint_.set_ack_ceiling(peer, ceiling);
  }

  /// The member's stack lock. broadcast() and the receive path take it
  /// (recursively — re-broadcasting from a deliver callback is fine).
  /// Layers built on top of this member (replica, lock, name service)
  /// guard their own externally-callable entry points with the SAME lock,
  /// so one stack has one lock and no ordering hazards. Needed only under
  /// ThreadTransport; uncontended (cheap) under SimTransport.
  [[nodiscard]] RecursiveMutex& stack_mutex() const override {
    return mutex_;
  }

 private:
  struct PendingMessage {
    Delivery delivery;
    std::size_t missing = 0;
    /// Wall-clock stamp when the message entered the hold-back queue
    /// (0 when observability is off) — source of the hold-time metric.
    std::int64_t held_since_us = 0;
  };

  void on_receive(NodeId from, const WireFrame& frame);
  void try_deliver(Delivery delivery) CBC_REQUIRES(mutex_);
  void deliver_now(Delivery delivery, std::int64_t held_since_us)
      CBC_REQUIRES(mutex_);
  [[nodiscard]] bool delivered_locally(MessageId message) const
      CBC_REQUIRES(mutex_);

  Transport& transport_;
  GroupView view_;  // owned: replaced by install_view()
  DeliverFn deliver_;
  Options options_;
  ReliableEndpoint endpoint_;
  mutable RecursiveMutex mutex_{kRankStack, "osend stack"};
  bool sends_suspended_ = false;
  // Wire messages from senders outside the current view (a joiner racing
  // ahead of our install): replayed on install_view(). Frames are retained
  // by refcount — no bytes are copied into the buffer.
  std::vector<WireFrame> foreign_buffer_ CBC_GUARDED_BY(mutex_);

  SeqNo next_seq_ CBC_GUARDED_BY(mutex_) = 1;
  // Delivered membership, keyed by NodeId rather than view rank so that a
  // message from a sender who has since left the view still counts as
  // delivered. delivered_prefix_ is its rank-indexed wire image.
  std::unordered_map<NodeId, PrefixSeqSet> delivered_by_sender_
      CBC_GUARDED_BY(mutex_);
  std::unordered_map<MessageId, PendingMessage> pending_
      CBC_GUARDED_BY(mutex_);
  // missing dependency -> ids of pending messages waiting on it
  std::unordered_map<MessageId, std::vector<MessageId>> waiters_
      CBC_GUARDED_BY(mutex_);

  VectorClock delivered_prefix_;
  VectorClock stable_floor_;
  MatrixClock knowledge_;
  MessageGraph graph_;
  std::vector<Delivery> log_;
  OrderingStats stats_;
  obs::LatencyHistogram* hold_hist_ = nullptr;
  // Last member: unregisters before the state it reads is torn down.
  obs::CollectorHandle collector_;
};

}  // namespace cbc
