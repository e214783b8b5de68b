// Delivery records and the common broadcast-member interface.
//
// Every ordering discipline in the library (OSend explicit-dependency
// causal, vector-clock causal, sequencer total, deterministic-merge total)
// presents the same surface: broadcast bytes with a label, get Delivery
// callbacks in an order that satisfies the discipline. Protocols above
// (replica, lock, appcons, flush) are written against this interface so
// any discipline can be composed under any upper protocol and benches can
// swap stacks without code changes.
//
// A Delivery wraps an immutable refcounted Envelope: copying a Delivery is
// a refcount bump plus a few scalar fields — the label, dependency set,
// and payload bytes are shared with the wire frame and never duplicated on
// the message path (hold-back queues, app callbacks). A member keeps no
// delivery once its upward callback returns: a callee that needs one
// later copies it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "causal/envelope.h"
#include "graph/dep_spec.h"
#include "graph/message_id.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace cbc {

class GroupView;

/// One message as handed to the application by an ordering layer.
class Delivery {
 public:
  Delivery() = default;

  /// Adopts an envelope; id/sender/sent_at are mirrored from its header.
  explicit Delivery(Envelope envelope)
      : id(envelope.id()),
        sender(envelope.sender()),
        sent_at(envelope.sent_at()),
        envelope_(std::move(envelope)) {}

  /// Builds a delivery around a freshly encoded envelope — for tests and
  /// harnesses that feed upper layers without a wire protocol underneath.
  [[nodiscard]] static Delivery synthetic(MessageId id, std::string label,
                                          DepSpec deps,
                                          SimTime delivered_at = 0);

  MessageId id;                 ///< globally unique message id
  NodeId sender = kNoNode;      ///< originating member
  SimTime sent_at = 0;          ///< transport time at broadcast
  SimTime delivered_at = 0;     ///< transport time at delivery

  /// Application label (e.g. "inc"). Shared with the envelope unless an
  /// interposition layer rewrote it (override_label).
  [[nodiscard]] const std::string& label() const {
    return label_override_ ? *label_override_
                           : (envelope_.valid() ? envelope_.label() : empty_label());
  }

  /// Occurs_After set (empty for disciplines that don't carry one).
  [[nodiscard]] const DepSpec& deps() const {
    return envelope_.valid() ? envelope_.deps() : empty_deps();
  }

  /// Opaque application bytes — a view into the shared wire frame.
  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return envelope_.valid() ? envelope_.payload()
                             : std::span<const std::uint8_t>{};
  }

  [[nodiscard]] const Envelope& envelope() const { return envelope_; }

  /// Rewrites the application-visible label without touching the shared
  /// envelope (used by label-mangling layers, e.g. scoped total order).
  void override_label(std::string label) { label_override_ = std::move(label); }

 private:
  static const std::string& empty_label();
  static const DepSpec& empty_deps();

  Envelope envelope_;
  std::optional<std::string> label_override_;
};

/// Application callback invoked exactly once per delivered message, in
/// the order chosen by the discipline.
using DeliverFn = std::function<void(const Delivery&)>;

/// Counters shared by all ordering-layer members.
struct OrderingStats {
  std::uint64_t broadcasts = 0;        ///< messages this member originated
  std::uint64_t received = 0;          ///< wire messages received
  std::uint64_t delivered = 0;         ///< messages handed to the app
  std::uint64_t held_back = 0;         ///< messages that waited in the
                                       ///< hold-back queue at least once
  std::uint64_t max_holdback_depth = 0;///< peak hold-back queue size
  std::uint64_t duplicates = 0;        ///< duplicate wire messages dropped
  std::uint64_t malformed = 0;         ///< undecodable wire messages dropped
                                       ///< (untrusted datagram input)
};

/// Common interface of one group member under some ordering discipline —
/// the bottom of every protocol stack. Upper layers (flush, replica, lock,
/// appcons) hold this interface, never a concrete discipline.
class BroadcastMember {
 public:
  virtual ~BroadcastMember() = default;

  /// This member's node id (== its transport endpoint id).
  [[nodiscard]] virtual NodeId id() const = 0;

  /// Broadcasts to the whole group. `deps` is honoured by disciplines
  /// that accept explicit dependencies and ignored by the others.
  /// Returns the new message's id.
  virtual MessageId broadcast(std::string label,
                              std::vector<std::uint8_t> payload,
                              const DepSpec& deps) = 0;

  [[nodiscard]] virtual const OrderingStats& stats() const = 0;

  /// The member's current group view.
  [[nodiscard]] virtual const GroupView& view() const = 0;

  /// Rebinds the upward delivery callback. Interposition layers splice
  /// themselves into a stack by capturing the member and installing their
  /// own handler (see stack/protocol_layer.h).
  virtual void set_deliver(DeliverFn deliver) = 0;

  /// The stack lock. broadcast() and the receive path take it
  /// (recursively — re-broadcasting from a deliver callback is fine).
  /// Layers built on top of a member guard their own externally-callable
  /// entry points with the SAME lock, so one stack has one lock and no
  /// ordering hazards. Needed only under ThreadTransport; uncontended
  /// (cheap) under SimTransport. Ranked kRankStack; helpers documented
  /// "must hold the stack lock" carry CBC_REQUIRES(stack_mutex()).
  [[nodiscard]] virtual RecursiveMutex& stack_mutex() const = 0;
};

/// Extracts just the ids of a delivery log (test/bench convenience).
[[nodiscard]] std::vector<MessageId> delivered_ids(
    const std::vector<Delivery>& log);

/// Extracts just the labels of a delivery log.
[[nodiscard]] std::vector<std::string> delivered_labels(
    const std::vector<Delivery>& log);

}  // namespace cbc
