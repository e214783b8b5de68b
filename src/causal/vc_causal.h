// Vector-clock causal broadcast (Birman–Schiper–Stephenson CBCAST).
//
// The comparison point the paper builds on: ISIS-style causal broadcast
// that enforces the *full* potential-causality order — every message a
// member had delivered before sending is treated as a predecessor, whether
// or not the application semantics needs that edge. The paper argues (§3,
// footnote 1) that this over-ordering costs concurrency; bench C1
// quantifies the difference against OSendMember's explicit dependencies.
//
// Delivery rule for a message from sender rank j with timestamp ts at a
// member with clock VC:   ts[j] == VC[j] + 1   and   ts[k] <= VC[k]  ∀k≠j.
//
// Wire layout: [VectorClock timestamp][envelope section] — shared Envelope
// codec after the CBCAST prelude; one frame per broadcast, parsed in place.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_set>
#include <vector>

#include "causal/delivery.h"
#include "causal/envelope.h"
#include "group/group_view.h"
#include "time/vector_clock.h"
#include "transport/reliable.h"
#include "transport/transport.h"
#include "util/thread_annotations.h"

namespace cbc {

/// One group member speaking vector-clock CBCAST.
class VcCausalMember final : public BroadcastMember {
 public:
  struct Options {
    ReliableEndpoint::Options reliability{.enabled = false};
  };

  VcCausalMember(Transport& transport, const GroupView& view,
                 DeliverFn deliver)
      : VcCausalMember(transport, view, std::move(deliver), Options{}) {}
  VcCausalMember(Transport& transport, const GroupView& view,
                 DeliverFn deliver, Options options);

  [[nodiscard]] NodeId id() const override { return endpoint_.id(); }

  /// Broadcasts; `deps` is ignored — causality is inferred from the
  /// member's entire delivery history, which is the point of contrast
  /// with OSend.
  MessageId broadcast(std::string label, std::vector<std::uint8_t> payload,
                      const DepSpec& deps) override;

  /// Messages delivered so far, in delivery order (a reference baseline
  /// keeps its whole log; the paper's protocols keep none).
  [[nodiscard]] const std::vector<Delivery>& log() const { return log_; }
  [[nodiscard]] const OrderingStats& stats() const override { return stats_; }

  void set_deliver(DeliverFn deliver) override;

  [[nodiscard]] std::size_t holdback_depth() const {
    const LockGuard guard(mutex_);
    return holdback_.size();
  }
  [[nodiscard]] const VectorClock& clock() const { return clock_; }
  [[nodiscard]] const GroupView& view() const override { return view_; }

  /// Stack lock — see OSendMember::stack_mutex().
  [[nodiscard]] RecursiveMutex& stack_mutex() const override {
    return mutex_;
  }

 private:
  struct HeldMessage {
    Delivery delivery;
    VectorClock timestamp;
  };

  void on_receive(NodeId from, const WireFrame& frame);
  [[nodiscard]] bool deliverable(const VectorClock& timestamp,
                                 std::size_t sender_rank) const
      CBC_REQUIRES(mutex_);
  void deliver_now(Delivery delivery, const VectorClock& timestamp,
                   std::size_t sender_rank) CBC_REQUIRES(mutex_);
  void scan_holdback() CBC_REQUIRES(mutex_);

  Transport& transport_;
  const GroupView& view_;
  DeliverFn deliver_;
  ReliableEndpoint endpoint_;
  mutable RecursiveMutex mutex_{kRankStack, "vc-causal stack"};

  SeqNo next_seq_ CBC_GUARDED_BY(mutex_) = 1;
  // Mutated under mutex_ but exposed by the unlocked clock() accessor
  // (tests read it quiescently), so not statically guarded.
  VectorClock clock_;
  std::list<HeldMessage> holdback_ CBC_GUARDED_BY(mutex_);
  std::unordered_set<MessageId> seen_ CBC_GUARDED_BY(mutex_);
  std::vector<Delivery> log_;
  OrderingStats stats_;
};

}  // namespace cbc
