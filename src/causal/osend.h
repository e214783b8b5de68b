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
// Nothing is retained per delivered message: delivered membership is a
// per-sender contiguous prefix plus the few seqs delivered above it, so
// per-delivery work is O(deps) and retained state does not grow with the
// length of the run. R(M) is stable information, identical at every member
// (§3.2), so a caller that wants the graph builds it from the delivery
// stream it is handed (tests/common/recorder.h does).
//
// Wire layout: the envelope section alone (causal/envelope.h). A message
// carries its Occurs_After set and nothing whose size depends on the
// group. The group is fixed for the member's lifetime (the paper's one
// group per computation), so a frame whose sender is outside the view is
// counted malformed, as a forged sender is. A broadcast encodes ONE frame
// shared by every destination and by the sender's self-delivery; receivers
// parse in place and hold-back entries alias the same frame.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "causal/delivery.h"
#include "causal/envelope.h"
#include "graph/message_graph.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "group/group_view.h"
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
class OSendMember final : public BroadcastMember {
 public:
  struct Options {
    /// Reliability layer configuration (pass-through by default; enable
    /// when the transport drops or duplicates).
    ReliableEndpoint::Options reliability{.enabled = false};
    /// Observability sinks: OrderingStats collector + holdback gauge, a
    /// causal-hold-time histogram, and per-envelope submit/deliver spans
    /// with Occurs_After flow edges. Default: off.
    obs::Hooks obs{};
  };

  /// `transport` must outlive the member; the view is copied. The
  /// member's node id is assigned by the transport and must be a member
  /// of `view` — i.e. register members in ascending view order.
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

  [[nodiscard]] const OrderingStats& stats() const override { return stats_; }

  /// Rebinds the upward delivery callback (stack splicing).
  void set_deliver(DeliverFn deliver) override;

  /// Number of messages currently held back waiting for dependencies.
  [[nodiscard]] std::size_t holdback_depth() const {
    const LockGuard guard(mutex_);
    return pending_.size();
  }

  /// Always empty: the member records no graph. Only perfbench reads it
  /// (its traced causal.graph_nodes gauge).
  [[nodiscard]] const MessageGraph& graph() const {
    static const MessageGraph kNone;
    return kNone;
  }

  /// Contiguous delivered prefix per sender (rank-indexed by view).
  [[nodiscard]] const VectorClock& delivered_prefix() const {
    return delivered_prefix_;
  }

  /// True when this member has delivered `message` (including messages
  /// covered by an adopted baseline).
  [[nodiscard]] bool has_delivered(MessageId message) const;

  [[nodiscard]] const GroupView& view() const override { return view_; }

  // --- Crash recovery.

  /// Adopts a delivered-prefix baseline (rank-indexed by view): messages
  /// at or below it are deemed delivered ("before my time"). A member
  /// restored from a checkpoint adopts the checkpoint's frontier.
  void adopt_baseline(const VectorClock& baseline);

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
  /// so one stack has one lock and no ordering hazards. Contended only
  /// when a second thread (a test or tool thread) submits while the event
  /// loop delivers; uncontended (cheap) otherwise.
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

  /// Deliveries ready to go, each with the wall-clock stamp of when it
  /// entered the hold-back queue (0 = delivered on arrival).
  using ReadyQueue = std::deque<std::pair<Delivery, std::int64_t>>;

  void on_receive(NodeId from, const WireFrame& frame);
  void try_deliver(Delivery delivery) CBC_REQUIRES(mutex_);
  /// The one release step: counts down the held-back messages waiting on
  /// `dep`, now delivered or covered by an adopted baseline, and queues
  /// each whose last missing dependency it was. One the member already
  /// holds as delivered (a baseline covered it) counts as a duplicate.
  void release_waiters(MessageId dep, ReadyQueue& ready) CBC_REQUIRES(mutex_);
  /// Delivers `ready` in order, releasing the waiters of each delivery.
  void deliver_ready(ReadyQueue ready) CBC_REQUIRES(mutex_);
  void deliver_now(Delivery delivery, std::int64_t held_since_us)
      CBC_REQUIRES(mutex_);
  [[nodiscard]] bool delivered_locally(MessageId message) const
      CBC_REQUIRES(mutex_);

  Transport& transport_;
  GroupView view_;
  DeliverFn deliver_;
  Options options_;
  ReliableEndpoint endpoint_;
  mutable RecursiveMutex mutex_{kRankStack, "osend stack"};

  SeqNo next_seq_ CBC_GUARDED_BY(mutex_) = 1;
  // Delivered membership per sender; delivered_prefix_ is its
  // rank-indexed image.
  std::unordered_map<NodeId, PrefixSeqSet> delivered_by_sender_
      CBC_GUARDED_BY(mutex_);
  std::unordered_map<MessageId, PendingMessage> pending_
      CBC_GUARDED_BY(mutex_);
  // missing dependency -> ids of pending messages waiting on it
  std::unordered_map<MessageId, std::vector<MessageId>> waiters_
      CBC_GUARDED_BY(mutex_);

  VectorClock delivered_prefix_;
  OrderingStats stats_;
  obs::LatencyHistogram* hold_hist_ = nullptr;
  // Last member: unregisters before the state it reads is torn down.
  obs::CollectorHandle collector_;
};

}  // namespace cbc
