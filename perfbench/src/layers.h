// Span decorators spliced into the traced run's stacks at the layer
// boundaries; the untraced run builds the stack without them.
//
//   inner transport (UdpTransport, or ChaosTransport over SimTransport)
//     <- SpanTransport(net.send / transport.unbatch)      net|transport
//   BatchingTransport
//     <- SpanTransport(transport.send / causal.recv)      transport|causal
//   OSendMember
//     <- SpanLayer(check.deliver, causal.broadcast)       causal|check
//   InvariantChecker
//     <- SpanLayer(replica.apply)                         check|replica
//   delivery tap -> ReplicaNode
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "stack/protocol_layer.h"
#include "transport/transport.h"

namespace perfbench {

/// Transport decorator: a `send_span` around every send into the inner
/// transport and a `recv_span` around every receive handler it calls.
/// Also counts the bytes it passes down.
class SpanTransport final : public cbc::Transport {
 public:
  SpanTransport(cbc::Transport& inner, SpanKind send_span, SpanKind recv_span)
      : inner_(inner), send_span_(send_span), recv_span_(recv_span) {}

  cbc::NodeId add_endpoint(Handler handler) override {
    return inner_.add_endpoint(
        [this, handler = std::move(handler)](cbc::NodeId from,
                                             const cbc::WireFrame& frame) {
          const ScopedSpan span(recv_span_);
          handler(from, frame);
        });
  }
  [[nodiscard]] std::size_t endpoint_count() const override {
    return inner_.endpoint_count();
  }
  using Transport::send;
  void send(cbc::NodeId from, cbc::NodeId to,
            cbc::SharedBuffer frame) override {
    bytes_ += frame != nullptr ? frame->size() : 0;
    const ScopedSpan span(send_span_);
    inner_.send(from, to, std::move(frame));
  }
  void schedule(cbc::SimTime delay_us, std::function<void()> action) override {
    inner_.schedule(delay_us, std::move(action));
  }
  [[nodiscard]] cbc::SimTime now_us() const override {
    return inner_.now_us();
  }

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  cbc::Transport& inner_;
  SpanKind send_span_;
  SpanKind recv_span_;
  std::uint64_t bytes_ = 0;
};

/// ProtocolLayer decorator: a `deliver_span` around everything above it
/// on the delivery path and, when given, a `broadcast_span` around the
/// member below it on the broadcast path.
class SpanLayer final : public cbc::ProtocolLayer {
 public:
  SpanLayer(std::unique_ptr<cbc::BroadcastMember> lower, SpanKind deliver_span,
            std::optional<SpanKind> broadcast_span)
      : ProtocolLayer(std::move(lower)),
        deliver_span_(deliver_span),
        broadcast_span_(broadcast_span) {}

  cbc::MessageId broadcast(std::string label,
                           std::vector<std::uint8_t> payload,
                           const cbc::DepSpec& deps) override {
    if (!broadcast_span_.has_value()) {
      return ProtocolLayer::broadcast(std::move(label), std::move(payload),
                                      deps);
    }
    ScopedSpan span(*broadcast_span_);
    const cbc::MessageId id =
        lower().broadcast(std::move(label), std::move(payload), deps);
    span.set_id(id);
    return id;
  }

 protected:
  void on_lower_delivery(const cbc::Delivery& delivery) override {
    ScopedSpan span(deliver_span_);
    span.set_id(delivery.id);
    deliver_up(delivery);
  }

 private:
  SpanKind deliver_span_;
  std::optional<SpanKind> broadcast_span_;
};

}  // namespace perfbench
