// ReplicaNode — one member of a replicated-data group (§6.1's base
// protocol, assembled from the library's layers).
//
// Each node is simultaneously:
//   - a *replica*: a state machine applying every delivered request in the
//     local causal delivery order ("a replica basically processes messages
//     in the sequence established by the causal order");
//   - a *front-end manager*: the client-side label/ordering generator;
//   - a *stable-point observer*: reads requested against the node are
//     deferred to a stable point, where the returned value is identical at
//     every member.
//
// The node is written against the abstract BroadcastMember interface and
// owns its ordering member via unique_ptr — the default factory builds an
// OSendMember, but any discipline (or a whole ProtocolLayer stack) can be
// injected instead.
//
// The State template parameter supplies the application semantics; see
// src/apps for the shipped state machines and src/object for the
// runtime-polymorphic object::Value (an object chosen by name — seed it
// via Options::initial). Requirements on State:
//   copyable                                     stable-point snapshots
//   std::vector<std::uint8_t> apply(kind, Reader&)  transition function F,
//                                                returning the op response
//   bool operator==(const State&)                agreement checks
// The node's initial state defaults to State{}; every member must be
// seeded identically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "activity/commutativity.h"
#include "activity/stable_point.h"
#include "causal/osend.h"
#include "util/thread_annotations.h"
#include "replica/front_end.h"
#include "stack/protocol_layer.h"
#include "util/serde.h"

namespace cbc {

template <typename State>
class ReplicaNode {
 public:
  /// Callback for deferred reads: the agreed state plus the stable point
  /// at which it was taken.
  using StableReadFn = std::function<void(const State&, const StablePoint&)>;

  /// Callback fired when a particular message has been applied locally;
  /// receives the post-application state (used to answer a submitted read
  /// at its serialization point).
  using AppliedFn = std::function<void(const State&)>;

  /// Callback fired after each delivered operation has been applied,
  /// with the response its application produced (history recording,
  /// client reply paths).
  using ApplyObserverFn =
      std::function<void(const Delivery&, const std::vector<std::uint8_t>&)>;

  struct Options {
    OSendMember::Options member;
    FrontEndManager::Options front_end;
    /// The replica's starting state — identical at every member. Needed
    /// whenever State{} is not the real initial value (object::Value is
    /// empty until seeded with a catalog object).
    State initial{};
  };

  ReplicaNode(Transport& transport, const GroupView& view,
              CommutativitySpec spec)
      : ReplicaNode(transport, view, std::move(spec), Options{}) {}

  ReplicaNode(Transport& transport, const GroupView& view,
              CommutativitySpec spec, Options options)
      : ReplicaNode(std::make_unique<OSendMember>(
                        transport, view, [](const Delivery&) {},
                        options.member),
                    std::move(spec), options.front_end,
                    std::move(options.initial)) {}

  /// Injects an ordering member (any discipline or layered stack); the
  /// node splices itself into the member's delivery path.
  ReplicaNode(std::unique_ptr<BroadcastMember> member, CommutativitySpec spec,
              FrontEndManager::Options front_end_options = {},
              State initial = State{})
      : member_(std::move(member)),
        front_end_(*member_, spec, front_end_options),
        detector_(spec,
                  [this](const StablePoint& point) { on_stable_point(point); }),
        state_(std::move(initial)) {
    member_->set_deliver(
        [this](const Delivery& delivery) { on_delivery(delivery); });
  }

  /// Submits an operation through the front-end manager. Returns the
  /// request's message id. Thread-safe (shares the member's stack lock
  /// with the delivery path, so it may be called from any thread under
  /// ThreadTransport).
  MessageId submit(const std::string& kind, std::vector<std::uint8_t> args) {
    const LockGuard guard(member_->stack_mutex());
    return front_end_.submit(kind, std::move(args));
  }

  /// Convenience for the src/apps Op structs ({kind, args}).
  template <typename OpT>
  MessageId submit(const OpT& op) {
    return submit(op.kind, op.args);
  }

  /// Submits an operation and registers a callback for the moment it is
  /// applied at *this* replica. For a non-commutative read this is the
  /// paper's consistent read: the observed state equals every other
  /// member's state at the same point.
  template <typename OpT>
  MessageId submit_with_result(const OpT& op, AppliedFn on_applied) {
    const LockGuard guard(member_->stack_mutex());
    // Register under the id the next broadcast will get, *before*
    // submitting: local delivery happens synchronously inside submit().
    pending_result_.emplace(MessageId{member_->id(), next_local_seq()},
                            std::move(on_applied));
    return submit(op.kind, op.args);
  }

  /// Defers a read to the next stable point (no message is sent): the
  /// callback receives the agreed snapshot. "A read operation requested
  /// at a member may be deferred to occur at the next stable point so
  /// that the value returned is the same as that by every other member."
  void read_at_next_stable(StableReadFn fn) {
    const LockGuard guard(member_->stack_mutex());
    deferred_reads_.push_back(std::move(fn));
  }

  /// Observes every local application (delivery + response). One observer
  /// at a time; set before traffic flows.
  void set_apply_observer(ApplyObserverFn observer) {
    const LockGuard guard(member_->stack_mutex());
    apply_observer_ = std::move(observer);
  }

  /// Current local state (may differ across members between stable points).
  [[nodiscard]] const State& state() const { return state_; }

  /// Snapshot taken at the most recent stable point (agreed value).
  [[nodiscard]] const std::optional<State>& last_stable_state() const {
    return last_stable_state_;
  }

  /// Seeds the replica from a transferred stable-point snapshot (crash
  /// recovery). The snapshot becomes both the working state and the last
  /// stable state; call before any delivery flows through this node.
  void restore_state(State snapshot) {
    const LockGuard guard(member_->stack_mutex());
    state_ = snapshot;
    last_stable_state_ = std::move(snapshot);
  }

  /// Always empty: the node keeps only last_stable_state(). Only
  /// perfbench reads it (its traced replica.stable_states gauge).
  [[nodiscard]] const std::vector<State>& stable_history() const {
    static const std::vector<State> kNone;
    return kNone;
  }

  /// Stable-point state copies held: last_stable_state()'s, once set.
  [[nodiscard]] std::size_t stable_states() const {
    return last_stable_state_.has_value() ? 1 : 0;
  }

  [[nodiscard]] BroadcastMember& member() { return *member_; }
  [[nodiscard]] const BroadcastMember& member() const { return *member_; }

  /// Checked downcast for OSend-specific accessors (stability, GC);
  /// only valid when the node runs over the OSend discipline, possibly
  /// under a stack of ProtocolLayer decorators (checker, tracing, taps) —
  /// the chain is unwrapped until the concrete member surfaces.
  [[nodiscard]] OSendMember& osend() {
    BroadcastMember* current = member_.get();
    while (auto* layer = dynamic_cast<ProtocolLayer*>(current)) {
      current = &layer->lower();
    }
    auto* concrete = dynamic_cast<OSendMember*>(current);
    require(concrete != nullptr,
            "ReplicaNode::osend: member is not an OSendMember");
    return *concrete;
  }

  [[nodiscard]] FrontEndManager& front_end() { return front_end_; }
  [[nodiscard]] const StablePointDetector& detector() const {
    return detector_;
  }
  [[nodiscard]] NodeId id() const { return member_->id(); }

 protected:
  /// Replaces the working state with a transferred one, leaving
  /// last_stable_state() alone: a joiner adopts its snapshot at a view's
  /// install cut, not at a stable point (DynamicReplicaNode).
  void adopt_state(State snapshot) { state_ = std::move(snapshot); }

 private:
  [[nodiscard]] SeqNo next_local_seq() const {
    // Member seqs start at 1 and increment per broadcast.
    return member_->stats().broadcasts + 1;
  }

  void on_delivery(const Delivery& delivery) {
    // Apply the operation: label "<kind>#<origin>.<n>" -> kind.
    const std::string kind = CommutativitySpec::kind_of(delivery.label());
    Reader args(delivery.payload());
    const std::vector<std::uint8_t> response = state_.apply(kind, args);
    if (apply_observer_) {
      apply_observer_(delivery, response);
    }
    front_end_.on_delivery(delivery);
    detector_.on_delivery(delivery);
    const auto pending = pending_result_.find(delivery.id);
    if (pending != pending_result_.end()) {
      AppliedFn fn = std::move(pending->second);
      pending_result_.erase(pending);
      fn(state_);
    }
  }

  void on_stable_point(const StablePoint& point) {
    last_stable_state_ = state_;
    if (deferred_reads_.empty()) {
      return;
    }
    std::vector<StableReadFn> reads = std::move(deferred_reads_);
    deferred_reads_.clear();
    for (StableReadFn& read : reads) {
      read(state_, point);
    }
  }

  std::unique_ptr<BroadcastMember> member_;
  FrontEndManager front_end_;
  StablePointDetector detector_;
  State state_{};
  std::optional<State> last_stable_state_;
  std::vector<StableReadFn> deferred_reads_;
  std::unordered_map<MessageId, AppliedFn> pending_result_;
  ApplyObserverFn apply_observer_;
};

}  // namespace cbc
