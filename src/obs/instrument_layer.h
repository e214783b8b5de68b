// InstrumentationLayer — a transparent ProtocolLayer decorator that
// meters the stack boundary it sits on: broadcasts submitted through it,
// deliveries crossing it, and the submit→deliver latency of each
// delivery (delivered_at - sent_at on the transport clock — the full
// encode → wire → hold pipeline below this layer).
//
// Splice one instance per boundary you care about; the hooks prefix
// names the boundary ("stack", "app", ...), so two layers in one stack
// expose distinct metric names. Header-only so cbc_obs stays a leaf
// library (this includes the stack layer headers; only executables and
// tests that use the layer pay the dependency).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/hooks.h"
#include "obs/metrics.h"
#include "stack/protocol_layer.h"

namespace cbc::obs {

/// Transparent metering decorator over any BroadcastMember.
class InstrumentationLayer final : public ProtocolLayer {
 public:
  struct Options {
    Hooks obs;
  };

  InstrumentationLayer(std::unique_ptr<BroadcastMember> lower, Options options)
      : ProtocolLayer(std::move(lower)), obs_(std::move(options.obs)) {
    if (obs_.prefix.empty()) {
      obs_.prefix = "stack";
    }
    if (obs_.any()) {
      broadcasts_ = &obs_.metrics->counter(obs_.prefix + ".broadcasts");
      deliveries_ = &obs_.metrics->counter(obs_.prefix + ".deliveries");
      latency_us_ =
          &obs_.metrics->histogram(obs_.prefix + ".submit_to_deliver_us");
    }
  }

  MessageId broadcast(std::string label, std::vector<std::uint8_t> payload,
                      const DepSpec& deps) override {
    if (broadcasts_ != nullptr) {
      broadcasts_->inc();
    }
    return ProtocolLayer::broadcast(std::move(label), std::move(payload),
                                    deps);
  }

 protected:
  void on_lower_delivery(const Delivery& delivery) override {
    if (deliveries_ != nullptr) {
      deliveries_->inc();
      // sent_at/delivered_at share the transport clock, so the difference
      // is the whole submit→deliver pipeline below this layer.
      if (delivery.delivered_at >= delivery.sent_at) {
        latency_us_->record(
            static_cast<double>(delivery.delivered_at - delivery.sent_at));
      }
    }
    deliver_up(delivery);
  }

 private:
  Hooks obs_;
  Counter* broadcasts_ = nullptr;
  Counter* deliveries_ = nullptr;
  LatencyHistogram* latency_us_ = nullptr;
};

}  // namespace cbc::obs
