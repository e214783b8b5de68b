// View-change flush protocol over a flushable member (virtual-synchrony
// style).
//
// The paper assumes a fixed group per computation (ISIS hosts the
// membership machinery); a production library needs joins and leaves. The
// FlushCoordinator installs a successor view at every surviving member at
// a *consistent cut*: no message is delivered in one view at one member
// and in a different view at another.
//
// Protocol (all traffic rides the member's own broadcast channel, labels
// prefixed "__vc"):
//   1. One member (the membership authority) calls propose(new_view);
//      a __vc_propose broadcast carries the encoded view.
//   2. On delivering the proposal, each member suspends application
//      sends and broadcasts __vc_flush carrying its contiguous
//      delivered-prefix vector.
//   3. A member installs the new view once it has (a) delivered __vc_flush
//      from every old-view member and (b) its own delivered prefix
//      dominates the component-wise max of all flush prefixes — i.e. it
//      has delivered everything anyone had delivered (and hence everything
//      anyone had *sent*, since senders self-deliver). Then sends resume.
//
// A joiner does not participate in the old view's flush: it is simply
// constructed with the successor view; survivors buffer any traffic the
// joiner emits early and replay it at installation (the member's
// foreign-message buffer).
//
// Assumption (documented, enforced): proposals are serialized by a single
// membership authority (the Membership class provides one); conflicting
// concurrent proposals raise ProtocolViolation.
//
// The coordinator is a ProtocolLayer: it owns an abstract ViewSyncMember
// (OSendMember by default), consumes "__vc*" system traffic, and passes
// everything else upward — so it can sit anywhere in a protocol stack.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "causal/osend.h"
#include "util/ensure.h"
#include "group/group_view.h"
#include "stack/protocol_layer.h"
#include "stack/view_sync.h"
#include "time/vector_clock.h"

namespace cbc {

/// Wraps a flushable broadcast member with the flush protocol.
class FlushCoordinator : public ProtocolLayer {
 public:
  /// Invoked after a new view is installed locally.
  using ViewInstalledFn = std::function<void(const GroupView&)>;

  /// Produces an application-state snapshot shipped to joiners inside the
  /// welcome message (captured at the install cut, so it reflects exactly
  /// the old-view traffic).
  using SnapshotFn = std::function<std::vector<std::uint8_t>()>;
  /// Installs a received snapshot at a joiner (called once, before any
  /// new-view application delivery is handed up).
  using AdoptSnapshotFn =
      std::function<void(std::span<const std::uint8_t> snapshot)>;

  /// Composes over an existing flushable member: system ("__vc*")
  /// messages are consumed by the coordinator, everything else is passed
  /// to `app_deliver`.
  FlushCoordinator(std::unique_ptr<ViewSyncMember> member,
                   DeliverFn app_deliver, ViewInstalledFn on_view);

  /// Convenience: constructs an OSendMember underneath.
  FlushCoordinator(Transport& transport, const GroupView& view,
                   DeliverFn app_deliver, ViewInstalledFn on_view)
      : FlushCoordinator(transport, view, std::move(app_deliver),
                         std::move(on_view), OSendMember::Options{}) {}
  FlushCoordinator(Transport& transport, const GroupView& view,
                   DeliverFn app_deliver, ViewInstalledFn on_view,
                   OSendMember::Options options);

  /// Enables application-state transfer to joiners. Survivors call
  /// `snapshot` at each install that admits joiners; a joiner's `adopt`
  /// runs when the first welcome arrives. Set on every member (symmetric).
  void enable_state_transfer(SnapshotFn snapshot, AdoptSnapshotFn adopt);

  /// Proposes a successor view (id must be current id + 1 and contain all
  /// the callers... any membership change except removing this member).
  void propose(const GroupView& new_view);

  [[nodiscard]] ViewSyncMember& member() { return *sync_; }
  [[nodiscard]] const ViewSyncMember& member() const { return *sync_; }

  /// Checked downcast for OSend-specific accessors (stability, GC);
  /// only valid when the coordinator runs over the default OSend member.
  [[nodiscard]] OSendMember& osend() {
    auto* concrete = dynamic_cast<OSendMember*>(sync_);
    require(concrete != nullptr,
            "FlushCoordinator::osend: member is not an OSendMember");
    return *concrete;
  }
  [[nodiscard]] bool view_change_in_progress() const {
    return target_.has_value();
  }

 protected:
  void on_lower_delivery(const Delivery& delivery) override;

 private:
  void handle_propose(const Delivery& delivery);
  void handle_flush(const Delivery& delivery);
  void handle_welcome(const Delivery& delivery);
  void maybe_install();

  ViewSyncMember* sync_ = nullptr;  // the owned lower member, typed
  ViewInstalledFn on_view_;

  std::optional<GroupView> target_;
  // Old-view member -> its flushed delivered-prefix (old-view ranks).
  std::map<NodeId, VectorClock> flushed_;
  // False only for a freshly constructed joiner that has neither flushed
  // through a view change nor adopted a survivor's welcome baseline.
  bool has_baseline_ = false;
  SnapshotFn snapshot_;
  AdoptSnapshotFn adopt_snapshot_;
};

}  // namespace cbc
