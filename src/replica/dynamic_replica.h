// DynamicReplicaNode — the §6.1 replica protocol over dynamic membership.
//
// A ReplicaNode over an injected FlushCoordinator (view changes at
// consistent cuts), plus *state transfer*: when a view with joiners
// installs, survivors ship a snapshot of the application state — captured
// exactly at the flush cut, so it is identical at every survivor — inside
// the welcome message, together with the front-end ordering context (last
// sync id and the open commutative set). A joiner adopts the snapshot
// before any new-view operation is applied, so it is a full replica from
// its first delivery onward.
//
// State requirements (beyond ReplicaNode's): `void encode(Writer&) const`
// and `static State decode(Reader&)`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "causal/flush.h"
#include "replica/replica_node.h"
#include "util/serde.h"

namespace cbc {

template <typename State>
class DynamicReplicaNode final : public ReplicaNode<State> {
 public:
  using Options = typename ReplicaNode<State>::Options;
  using ViewInstalledFn = std::function<void(const GroupView&)>;

  DynamicReplicaNode(Transport& transport, const GroupView& view,
                     CommutativitySpec spec)
      : DynamicReplicaNode(transport, view, std::move(spec), Options{}) {}

  DynamicReplicaNode(Transport& transport, const GroupView& view,
                     CommutativitySpec spec, Options options)
      : ReplicaNode<State>(
            std::make_unique<FlushCoordinator>(
                transport, view, [](const Delivery&) {},
                [this](const GroupView& installed) {
                  if (on_view_) {
                    on_view_(installed);
                  }
                },
                options.member),
            std::move(spec), options.front_end, std::move(options.initial)),
        coordinator_(static_cast<FlushCoordinator&>(this->member())) {
    coordinator_.enable_state_transfer(
        [this] { return make_snapshot(); },
        [this](std::span<const std::uint8_t> snapshot) {
          adopt_snapshot(snapshot);
        });
  }

  /// Proposes a membership change (this node acting as the authority).
  void propose_view(const GroupView& new_view) {
    coordinator_.propose(new_view);
  }

  /// Registers a view-installation observer.
  void on_view_installed(ViewInstalledFn fn) { on_view_ = std::move(fn); }

  [[nodiscard]] FlushCoordinator& coordinator() { return coordinator_; }
  [[nodiscard]] const GroupView& view() const { return coordinator_.view(); }

 private:
  [[nodiscard]] std::vector<std::uint8_t> make_snapshot() {
    Writer writer;
    this->state().encode(writer);
    // Front-end ordering context, so the joiner's first submissions slot
    // into the current causal activity instead of floating free.
    const FrontEndManager& front_end = this->front_end();
    front_end.last_sync().encode(writer);
    writer.u32(static_cast<std::uint32_t>(front_end.open_cids().size()));
    for (const MessageId& id : front_end.open_cids()) {
      id.encode(writer);
    }
    return writer.take();
  }

  void adopt_snapshot(std::span<const std::uint8_t> snapshot) {
    Reader reader(snapshot);
    this->adopt_state(State::decode(reader));
    const MessageId last_sync = MessageId::decode(reader);
    std::vector<MessageId> cids;
    const std::uint32_t count = reader.u32();
    cids.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      cids.push_back(MessageId::decode(reader));
    }
    this->front_end().restore(last_sync, std::move(cids));
  }

  FlushCoordinator& coordinator_;  // owned by the ReplicaNode as its member
  ViewInstalledFn on_view_;
};

}  // namespace cbc
