// Fixed-sequencer total order — the classical baseline ASend is compared
// against (bench C1/C5).
//
// The lowest-ranked view member acts as sequencer. Senders unicast their
// message to the sequencer, which stamps a global sequence number and
// broadcasts the ordered message; members deliver in contiguous stamp
// order. Two message hops for non-sequencer members (vs. one broadcast
// round for ASend), plus a throughput bottleneck and a single point of
// failure at the sequencer — the structural costs the paper's
// decentralized arbitration avoids.
//
// Wire layouts (shared Envelope codec after the prelude):
//   request:  [u8 kRequest][envelope section]
//   ordered:  [u8 kOrdered][u64 stamp][envelope section]
// The sequencer re-frames a request into the ordered broadcast by splicing
// the request's envelope section verbatim (Envelope::section_bytes) — the
// payload is copied exactly once on the request→ordered hop, and the
// ordered frame is then shared across all destinations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "causal/delivery.h"
#include "causal/envelope.h"
#include "group/group_view.h"
#include "transport/reliable.h"
#include "transport/transport.h"
#include "util/thread_annotations.h"

namespace cbc {

/// One group member under fixed-sequencer total order.
class SequencerMember final : public BroadcastMember {
 public:
  struct Options {
    ReliableEndpoint::Options reliability{.enabled = false};
  };

  SequencerMember(Transport& transport, const GroupView& view,
                  DeliverFn deliver)
      : SequencerMember(transport, view, std::move(deliver), Options{}) {}
  SequencerMember(Transport& transport, const GroupView& view,
                  DeliverFn deliver, Options options);

  [[nodiscard]] NodeId id() const override { return endpoint_.id(); }

  /// Submits a message; `deps` is ignored (total order subsumes it).
  MessageId broadcast(std::string label, std::vector<std::uint8_t> payload,
                      const DepSpec& deps) override;

  /// Messages delivered so far, in delivery order (a reference baseline
  /// keeps its whole log; the paper's protocols keep none).
  [[nodiscard]] const std::vector<Delivery>& log() const { return log_; }
  [[nodiscard]] const OrderingStats& stats() const override { return stats_; }

  void set_deliver(DeliverFn deliver) override;

  /// True when this member is the group's sequencer.
  [[nodiscard]] bool is_sequencer() const {
    return id() == view_.member_at(0);
  }

  [[nodiscard]] const GroupView& view() const override { return view_; }

  /// Stack lock — see OSendMember::stack_mutex().
  [[nodiscard]] RecursiveMutex& stack_mutex() const override {
    return mutex_;
  }

 private:
  enum class FrameType : std::uint8_t { kRequest = 1, kOrdered = 2 };

  void on_receive(NodeId from, const WireFrame& frame);
  void sequence_and_broadcast(const Envelope& envelope) CBC_REQUIRES(mutex_);
  void accept_ordered(std::uint64_t global_seq, Envelope envelope)
      CBC_REQUIRES(mutex_);
  void drain_in_order() CBC_REQUIRES(mutex_);

  Transport& transport_;
  const GroupView& view_;
  DeliverFn deliver_;
  ReliableEndpoint endpoint_;
  mutable RecursiveMutex mutex_{kRankStack, "sequencer stack"};

  SeqNo next_seq_ CBC_GUARDED_BY(mutex_) = 1;  // per-sender message ids
  // sequencer: next global stamp
  std::uint64_t next_stamp_ CBC_GUARDED_BY(mutex_) = 1;
  // everyone: next stamp to deliver
  std::uint64_t next_deliver_ CBC_GUARDED_BY(mutex_) = 1;
  // stamp -> message
  std::map<std::uint64_t, Envelope> pending_ CBC_GUARDED_BY(mutex_);
  std::vector<Delivery> log_;
  OrderingStats stats_;
};

}  // namespace cbc
