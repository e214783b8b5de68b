// Whole histories, recorded outside the protocol.
//
// The protocol classes keep no history: OSend and ASend hand each Delivery
// up and drop it, a StablePointDetector keeps its last point and a
// ReplicaNode its last stable state. None needs more: R(M) is stable
// information, identical at every member (§3.2), and a stable point's
// agreed state stands in for everything delivered before it (§4.1). A
// test, bench or example that inspects a whole history rebuilds it here,
// from the stream a member already hands out:
//   - deliveries: a member's deliver callback (tap()), a ProtocolLayer
//     (RecordingLayer) or a replica's apply observer (ReplicaRecorder);
//   - stable points: a StablePointDetector callback (point_tap(), or a
//     Recorder built with a spec, which runs its own detector);
//   - a replica's stable states: a read_at_next_stable that re-arms
//     itself (ReplicaRecorder).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "activity/stable_point.h"
#include "causal/delivery.h"
#include "graph/message_graph.h"
#include "replica/replica_group.h"
#include "replica/replica_node.h"
#include "stack/protocol_layer.h"

namespace cbc::testkit {

/// One member's deliveries and stable points, in local delivery order.
/// Taps capture the recorder, so it must outlive the member it records.
class Recorder {
 public:
  Recorder() = default;
  /// Also detects stable points in the recorded stream under `spec`.
  explicit Recorder(CommutativitySpec spec) {
    detector_.emplace(std::move(spec), point_tap());
  }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void record(const Delivery& delivery) {
    log_.push_back(delivery);
    if (detector_.has_value()) {
      detector_->on_delivery(delivery);
    }
  }

  /// A deliver callback that records each delivery, then hands it to
  /// `next` when one is given.
  [[nodiscard]] DeliverFn tap(DeliverFn next = nullptr) {
    return [this, next = std::move(next)](const Delivery& delivery) {
      record(delivery);
      if (next) {
        next(delivery);
      }
    };
  }

  void record_point(const StablePoint& point) { points_.push_back(point); }

  /// A StablePointDetector callback that records each point.
  [[nodiscard]] StablePointDetector::StablePointFn point_tap() {
    return [this](const StablePoint& point) { record_point(point); };
  }

  [[nodiscard]] const std::vector<Delivery>& log() const { return log_; }
  [[nodiscard]] std::vector<MessageId> ids() const {
    return delivered_ids(log_);
  }
  [[nodiscard]] const std::vector<StablePoint>& points() const {
    return points_;
  }

  /// R(M) as this member observed it: one node per recorded delivery,
  /// inserted in delivery order.
  [[nodiscard]] MessageGraph graph() const {
    MessageGraph graph;
    for (const Delivery& delivery : log_) {
      graph.add(delivery.id, delivery.label(), delivery.deps());
    }
    return graph;
  }

 private:
  std::vector<Delivery> log_;
  std::vector<StablePoint> points_;
  std::optional<StablePointDetector> detector_;
};

/// A transparent ProtocolLayer that records everything it hands up: the
/// tap for a member whose deliver callback an upper layer owns.
class RecordingLayer final : public ProtocolLayer {
 public:
  explicit RecordingLayer(std::unique_ptr<BroadcastMember> lower)
      : ProtocolLayer(std::move(lower)) {}

  [[nodiscard]] const Recorder& recorder() const { return recorder_; }

 protected:
  void on_lower_delivery(const Delivery& delivery) override {
    recorder_.record(delivery);
    deliver_up(delivery);
  }

 private:
  Recorder recorder_;
};

/// A replica's history: its deliveries (through the apply observer, which
/// it takes over) and each stable point with the agreed state there.
/// Attach before traffic flows.
template <typename State>
class ReplicaRecorder : public Recorder {
 public:
  explicit ReplicaRecorder(ReplicaNode<State>& node) : node_(node) {
    node_.set_apply_observer(
        [this](const Delivery& delivery, const std::vector<std::uint8_t>&) {
          record(delivery);
        });
    arm();
  }

  /// The agreed state at each of points(), pairwise.
  [[nodiscard]] const std::vector<State>& states() const { return states_; }

  /// Stable points the replica's detector has closed, recorded or not.
  [[nodiscard]] std::uint64_t detected_cycles() const {
    return node_.detector().cycles();
  }

 private:
  void arm() {
    node_.read_at_next_stable(
        [this](const State& state, const StablePoint& point) {
          record_point(point);
          states_.push_back(state);
          arm();
        });
  }

  ReplicaNode<State>& node_;
  std::vector<State> states_;
};

/// One ReplicaRecorder per node of `group`, attached now.
template <typename State>
std::vector<std::unique_ptr<ReplicaRecorder<State>>> record_replicas(
    ReplicaGroup<State>& group) {
  std::vector<std::unique_ptr<ReplicaRecorder<State>>> recorders;
  for (std::size_t i = 0; i < group.size(); ++i) {
    recorders.push_back(
        std::make_unique<ReplicaRecorder<State>>(group.node(i)));
  }
  return recorders;
}

}  // namespace cbc::testkit
