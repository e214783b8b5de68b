// ProtocolLayer — composable interposition on a broadcast stack.
//
// A ProtocolLayer owns the member below it, splices itself into the
// delivery path (set_deliver on the lower member), and is itself a
// BroadcastMember — so layers stack: the invariant checker over OSend,
// a replica over the checker, and so on. The
// default implementation is transparent; subclasses override
// on_lower_delivery() to consume/rewrite/delay upward traffic and
// broadcast() to interpose on the downward path.
//
//        app / upper layer
//            |  deliver_up()        ^ Delivery
//        ProtocolLayer subclass     |
//            |  lower().broadcast   ^ on_lower_delivery()
//        lower BroadcastMember
//            |                      ^
//         Transport
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "causal/delivery.h"
#include "util/ensure.h"

namespace cbc {

/// A BroadcastMember decorator over an owned lower member.
class ProtocolLayer : public BroadcastMember {
 public:
  /// Takes ownership of `lower` and splices into its delivery path. The
  /// lower member's previous deliver callback is discarded — construct
  /// stacks bottom-up and register the app callback on the TOP layer.
  explicit ProtocolLayer(std::unique_ptr<BroadcastMember> lower)
      : lower_(std::move(lower)) {
    require(lower_ != nullptr, "ProtocolLayer: null lower member");
    lower_->set_deliver(
        [this](const Delivery& delivery) { on_lower_delivery(delivery); });
  }

  [[nodiscard]] NodeId id() const override { return lower_->id(); }

  MessageId broadcast(std::string label, std::vector<std::uint8_t> payload,
                      const DepSpec& deps) override {
    return lower_->broadcast(std::move(label), std::move(payload), deps);
  }

  [[nodiscard]] const OrderingStats& stats() const override {
    return lower_->stats();
  }
  [[nodiscard]] const GroupView& view() const override {
    return lower_->view();
  }
  [[nodiscard]] RecursiveMutex& stack_mutex() const override {
    return lower_->stack_mutex();
  }

  void set_deliver(DeliverFn deliver) override {
    upper_ = std::move(deliver);
  }

  /// The member this layer sits on (for layer-specific accessors).
  [[nodiscard]] BroadcastMember& lower() { return *lower_; }
  [[nodiscard]] const BroadcastMember& lower() const { return *lower_; }

 protected:
  /// Upward path hook; the transparent default forwards everything.
  virtual void on_lower_delivery(const Delivery& delivery) {
    deliver_up(delivery);
  }

  /// Hands a delivery to whoever is stacked above (no-op when nothing is).
  void deliver_up(const Delivery& delivery) {
    if (upper_) {
      upper_(delivery);
    }
  }

 private:
  std::unique_ptr<BroadcastMember> lower_;
  DeliverFn upper_;
};

}  // namespace cbc
