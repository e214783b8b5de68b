// DynamicReplicaNode — the §6.1 replica protocol over dynamic membership.
//
// Combines the FlushCoordinator (view changes at consistent cuts) with
// the replica machinery (front-end manager, state machine, stable-point
// detection) and adds *state transfer*: when a view with joiners installs,
// survivors ship a snapshot of the application state — captured exactly at
// the flush cut, so it is identical at every survivor — inside the welcome
// message, together with the front-end ordering context (last sync id and
// the open commutative set). A joiner adopts the snapshot before any
// new-view operation is applied, so it is a full replica from its first
// delivery onward.
//
// State requirements (beyond ReplicaNode's): `void encode(Writer&) const`
// and `static State decode(Reader&)`.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "activity/commutativity.h"
#include "activity/stable_point.h"
#include "causal/flush.h"
#include "util/thread_annotations.h"
#include "replica/front_end.h"
#include "util/serde.h"

namespace cbc {

template <typename State>
class DynamicReplicaNode {
 public:
  using StableReadFn = std::function<void(const State&, const StablePoint&)>;
  using ViewInstalledFn = std::function<void(const GroupView&)>;

  struct Options {
    OSendMember::Options member;
    /// The replica's starting state — identical at every member (see
    /// ReplicaNode::Options::initial).
    State initial{};
  };

  DynamicReplicaNode(Transport& transport, const GroupView& view,
                     CommutativitySpec spec)
      : DynamicReplicaNode(transport, view, std::move(spec), Options{}) {}

  DynamicReplicaNode(Transport& transport, const GroupView& view,
                     CommutativitySpec spec, Options options)
      : coordinator_(
            transport, view,
            [this](const Delivery& delivery) { on_app_delivery(delivery); },
            [this](const GroupView& installed) {
              if (on_view_) {
                on_view_(installed);
              }
            },
            options.member),
        front_end_(coordinator_.member(), spec),
        detector_(
            spec,
            [this](const StablePoint& point) {
              last_stable_state_ = state_;
              stable_history_.push_back(state_);
              fire_deferred_reads(point);
            },
            /*keep_history=*/true),
        state_(std::move(options.initial)) {
    coordinator_.enable_state_transfer(
        [this] { return make_snapshot(); },
        [this](std::span<const std::uint8_t> snapshot) {
          adopt_snapshot(snapshot);
        });
  }

  /// Submits an operation through the front-end manager.
  MessageId submit(const std::string& kind, std::vector<std::uint8_t> args) {
    const LockGuard guard(coordinator_.member().stack_mutex());
    return front_end_.submit(kind, std::move(args));
  }

  template <typename OpT>
  MessageId submit(const OpT& op) {
    return submit(op.kind, op.args);
  }

  /// Proposes a membership change (this node acting as the authority).
  void propose_view(const GroupView& new_view) {
    coordinator_.propose(new_view);
  }

  /// Registers a view-installation observer.
  void on_view_installed(ViewInstalledFn fn) { on_view_ = std::move(fn); }

  void read_at_next_stable(StableReadFn fn) {
    const LockGuard guard(coordinator_.member().stack_mutex());
    deferred_reads_.push_back(std::move(fn));
  }

  [[nodiscard]] const State& state() const { return state_; }
  [[nodiscard]] const std::optional<State>& last_stable_state() const {
    return last_stable_state_;
  }
  [[nodiscard]] const std::vector<State>& stable_history() const {
    return stable_history_;
  }
  [[nodiscard]] const StablePointDetector& detector() const {
    return detector_;
  }
  [[nodiscard]] FlushCoordinator& coordinator() { return coordinator_; }
  [[nodiscard]] const GroupView& view() const { return coordinator_.view(); }
  [[nodiscard]] NodeId id() const { return coordinator_.member().id(); }

 private:
  void on_app_delivery(const Delivery& delivery) {
    const std::string kind = CommutativitySpec::kind_of(delivery.label());
    Reader args(delivery.payload());
    state_.apply(kind, args);
    front_end_.on_delivery(delivery);
    detector_.on_delivery(delivery);
  }

  [[nodiscard]] std::vector<std::uint8_t> make_snapshot() const {
    Writer writer;
    state_.encode(writer);
    // Front-end ordering context, so the joiner's first submissions slot
    // into the current causal activity instead of floating free.
    front_end_.last_sync().encode(writer);
    writer.u32(static_cast<std::uint32_t>(front_end_.open_cids().size()));
    for (const MessageId& id : front_end_.open_cids()) {
      id.encode(writer);
    }
    return writer.take();
  }

  void adopt_snapshot(std::span<const std::uint8_t> snapshot) {
    Reader reader(snapshot);
    state_ = State::decode(reader);
    const MessageId last_sync = MessageId::decode(reader);
    std::vector<MessageId> cids;
    const std::uint32_t count = reader.u32();
    cids.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      cids.push_back(MessageId::decode(reader));
    }
    front_end_.restore(last_sync, std::move(cids));
  }

  void fire_deferred_reads(const StablePoint& point) {
    if (deferred_reads_.empty()) {
      return;
    }
    std::vector<StableReadFn> reads = std::move(deferred_reads_);
    deferred_reads_.clear();
    for (StableReadFn& read : reads) {
      read(state_, point);
    }
  }

  FlushCoordinator coordinator_;
  FrontEndManager front_end_;
  StablePointDetector detector_;
  State state_{};
  std::optional<State> last_stable_state_;
  std::vector<State> stable_history_;
  std::vector<StableReadFn> deferred_reads_;
  ViewInstalledFn on_view_;
};

}  // namespace cbc
