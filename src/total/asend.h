// ASend: total ordering of spontaneous messages (paper §5.2, Figure 4).
//
// The paper interposes a function between the causal-broadcast and
// application layers that (i) imposes an arbitrary delivery order on a set
// of spontaneously generated messages and (ii) enforces that order
// identically at all members — without a central sequencer:
//
//   ASend({m1', m2'}, Occurs_After(Msg))     enforces  Msg -> m1' -> m2'
//                                            or        Msg -> m2' -> m1'
//                                            identically everywhere  (eq. 5)
//
// Realization: *deterministic round merge*. Logical time advances in
// rounds; each member contributes exactly one frame per round — its next
// queued message, or an explicit SKIP once it learns the round has started
// elsewhere. When a member holds all N frames of round r it delivers the
// round's real messages in a deterministic sort (label, sender, seq) and
// advances. Every member computes the same sort, so the sequence of state
// transitions is identical at every member — agreement "without explicit
// protocols", at the cost of N frames per round, which is why the paper
// notes total ordering "may be feasible when the group size is not large".
//
// The round structure is exactly the paper's (lbl_a, lbl_d) scoping: the
// close of round r-1 is the ascendant sync point of round r.
//
// Wire layout: [u64 round][bool skip]([envelope section] when !skip) —
// shared Envelope codec after the round prelude; buffered round frames
// retain the arrived buffer by refcount, never copying the payload.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "causal/delivery.h"
#include "causal/envelope.h"
#include "group/group_view.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "transport/reliable.h"
#include "transport/transport.h"
#include "util/thread_annotations.h"

namespace cbc {

/// One group member speaking the deterministic-round-merge total order.
class ASendMember final : public BroadcastMember {
 public:
  struct Options {
    ReliableEndpoint::Options reliability{.enabled = false};
    /// When true, log() keeps every delivery; when false it holds only
    /// the most recent one (each delivery aliases its wire frame).
    bool keep_delivery_log = false;
    /// Observability sinks: OrderingStats collector + round gauges and
    /// per-envelope submit/deliver spans. Default: off.
    obs::Hooks obs{};
  };

  ASendMember(Transport& transport, const GroupView& view, DeliverFn deliver)
      : ASendMember(transport, view, std::move(deliver), Options{}) {}
  ASendMember(Transport& transport, const GroupView& view, DeliverFn deliver,
              Options options);

  ASendMember(const ASendMember&) = delete;
  ASendMember& operator=(const ASendMember&) = delete;

  [[nodiscard]] NodeId id() const override { return endpoint_.id(); }

  /// Submits a message for total ordering. `deps` is accepted for
  /// interface compatibility; the round structure already serializes
  /// everything, which subsumes any Occurs_After ascendant.
  MessageId broadcast(std::string label, std::vector<std::uint8_t> payload,
                      const DepSpec& deps) override;

  /// Paper-styled alias of broadcast().
  MessageId asend(std::string label, std::vector<std::uint8_t> payload) {
    return broadcast(std::move(label), std::move(payload), DepSpec::none());
  }

  [[nodiscard]] const std::vector<Delivery>& log() const override {
    return log_;
  }
  [[nodiscard]] const OrderingStats& stats() const override { return stats_; }

  void set_deliver(DeliverFn deliver) override;

  /// Round whose delivery this member is currently waiting to complete.
  [[nodiscard]] std::uint64_t current_round() const {
    const LockGuard guard(mutex_);
    return deliver_round_;
  }

  /// Number of frames buffered for future rounds.
  [[nodiscard]] std::size_t buffered_frames() const {
    const LockGuard guard(mutex_);
    return buffered_frames_locked();
  }

  [[nodiscard]] const GroupView& view() const override { return view_; }

  /// Stack lock — see OSendMember::stack_mutex().
  [[nodiscard]] RecursiveMutex& stack_mutex() const override {
    return mutex_;
  }

 private:
  /// One member's contribution to one round: a real message or a SKIP
  /// (a null envelope).
  struct Frame {
    bool skip = false;
    Envelope envelope;  // meaningful when !skip
  };

  /// A submitted message awaiting its round (transient: each submission
  /// is contributed to a round within the same broadcast() call unless
  /// the member is catching up).
  struct PendingSubmit {
    MessageId id;
    std::string label;
    std::vector<std::uint8_t> payload;
  };

  void on_receive(NodeId from, const WireFrame& frame);
  void contribute(std::uint64_t round) CBC_REQUIRES(mutex_);
  void catch_up_contributions(std::uint64_t round) CBC_REQUIRES(mutex_);
  /// Encodes and broadcasts this member's frame for `round`; returns the
  /// contributed frame (sharing the encoded buffer for a real message).
  Frame send_frame(std::uint64_t round, std::optional<PendingSubmit> submit)
      CBC_REQUIRES(mutex_);
  void try_close_rounds() CBC_REQUIRES(mutex_);
  [[nodiscard]] std::size_t buffered_frames_locked() const
      CBC_REQUIRES(mutex_);

  Transport& transport_;
  const GroupView& view_;
  DeliverFn deliver_;
  Options options_;
  ReliableEndpoint endpoint_;
  mutable RecursiveMutex mutex_{kRankStack, "asend stack"};

  SeqNo next_seq_ CBC_GUARDED_BY(mutex_) = 1;
  // first round not contributed
  std::uint64_t next_contribution_round_ CBC_GUARDED_BY(mutex_) = 0;
  // first round not delivered
  std::uint64_t deliver_round_ CBC_GUARDED_BY(mutex_) = 0;
  // messages awaiting a round
  std::deque<PendingSubmit> submit_queue_ CBC_GUARDED_BY(mutex_);
  // round -> (member rank -> frame)
  std::map<std::uint64_t, std::map<std::size_t, Frame>> rounds_
      CBC_GUARDED_BY(mutex_);
  std::vector<Delivery> log_;
  OrderingStats stats_;
  // Last member: unregisters before the state it reads is torn down.
  obs::CollectorHandle collector_;
};

}  // namespace cbc
