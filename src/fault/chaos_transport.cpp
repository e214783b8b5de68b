#include "fault/chaos_transport.h"

#include "obs/flight_recorder.h"
#include "util/ensure.h"

namespace cbc::fault {

namespace {

/// Stream key for one directed link: seed mixed with (from, to) through a
/// splitmix-style finalizer so adjacent links get unrelated streams.
std::uint64_t link_stream_seed(std::uint64_t seed, NodeId from, NodeId to) {
  std::uint64_t z = seed ^ (static_cast<std::uint64_t>(from) << 32 |
                            static_cast<std::uint64_t>(to));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Extra overtaking delay for reordered frames: long enough to land after
/// frames sent (and possibly delayed) shortly afterwards.
constexpr SimTime kReorderDelayMinUs = 500;
constexpr SimTime kReorderDelayMaxUs = 2000;
/// Offset separating a duplicate from its original.
constexpr SimTime kDuplicateOffsetUs = 50;

/// MessageId stamped into kFault flight records for one wire frame. The
/// lockstep invariant (one reliable data frame per broadcast per link)
/// makes the link seq of a kData header [u8 1][u64 seq le] the sender's
/// broadcast seq; control/heartbeat/oob frames record as seq 0.
MessageId frame_flight_id(NodeId from, const SharedBuffer& frame) {
  std::uint64_t seq = 0;
  const std::span<const std::uint8_t> bytes = frame->bytes();
  if (bytes.size() >= 9 && bytes[0] == 1) {
    for (std::size_t i = 8; i >= 1; --i) {
      seq = (seq << 8) | bytes[i];
    }
  }
  return MessageId{from, seq};
}

void flight_fault(const MessageId& id, obs::FaultKind kind) {
  obs::flight_record(obs::FlightEvent::kFault, id,
                     static_cast<std::uint64_t>(kind));
}

}  // namespace

ChaosTransport::ChaosTransport(Transport& inner, Options options)
    : inner_(inner), options_(std::move(options)) {
  if (options_.obs.prefix.empty()) {
    options_.obs.prefix = "fault";
  }
  arm_local_crash();
  if (options_.obs.any()) {
    collector_ = options_.obs.metrics->register_collector(
        [this](obs::CollectorSink& sink) {
          const ChaosStats s = stats();
          const std::string& prefix = options_.obs.prefix;
          sink.counter(prefix + ".forwarded", s.forwarded);
          sink.counter(prefix + ".drops", s.drops);
          sink.counter(prefix + ".duplicates", s.duplicates);
          sink.counter(prefix + ".delays", s.delays);
          sink.counter(prefix + ".reorders", s.reorders);
          sink.counter(prefix + ".partition_drops", s.partition_drops);
          sink.counter(prefix + ".crash_drops", s.crash_drops);
        });
  }
}

void ChaosTransport::arm_local_crash() {
  if (!options_.local_node.has_value() || !options_.on_crash) {
    return;
  }
  const std::optional<SimTime> at =
      options_.plan.crash_time(*options_.local_node);
  if (!at.has_value()) {
    return;
  }
  const SimTime now = inner_.now_us();
  const SimTime delay = *at > now ? *at - now : 0;
  inner_.schedule(delay, [this] {
    bool fire = false;
    {
      const LockGuard guard(mutex_);
      fire = !crash_fired_;
      crash_fired_ = true;
    }
    if (fire) {
      // Mark the scripted crash point in the journal before the handler
      // (which typically dumps the ring and _Exit()s) runs.
      flight_fault(MessageId{options_.local_node.value_or(kNoNode), 0},
                   obs::FaultKind::kCrash);
      options_.on_crash();
    }
  });
}

NodeId ChaosTransport::add_endpoint(Handler handler) {
  // Receive path is untouched: faults are injected exactly once, on the
  // sending side of each link.
  return inner_.add_endpoint(std::move(handler));
}

std::size_t ChaosTransport::endpoint_count() const {
  return inner_.endpoint_count();
}

Rng& ChaosTransport::link_rng(NodeId from, NodeId to) {
  auto it = link_rngs_.find({from, to});
  if (it == link_rngs_.end()) {
    it = link_rngs_
             .emplace(LinkKey{from, to},
                      Rng(link_stream_seed(options_.plan.seed(), from, to)))
             .first;
  }
  return it->second;
}

bool ChaosTransport::crashed(NodeId node, SimTime now) const {
  const std::optional<SimTime> at = options_.plan.crash_time(node);
  return at.has_value() && now >= *at;
}

void ChaosTransport::send(NodeId from, NodeId to, SharedBuffer frame) {
  require(frame != nullptr, "ChaosTransport::send: null frame");
  const SimTime now = inner_.now_us();

  bool duplicate = false;
  SimTime delay_us = 0;
  {
    const LockGuard guard(mutex_);
    if (crashed(from, now) || crashed(to, now)) {
      stats_.crash_drops += 1;
      flight_fault(frame_flight_id(from, frame), obs::FaultKind::kCrashDrop);
      return;
    }
    if (options_.plan.partitioned(from, to, now)) {
      stats_.partition_drops += 1;
      flight_fault(frame_flight_id(from, frame),
                   obs::FaultKind::kPartitionDrop);
      return;
    }
    const LinkRule* rule = options_.plan.rule_for(from, to);
    if (rule != nullptr && !rule->quiet()) {
      // Fixed draw order — drop, duplicate, delay, reorder — consumed on
      // EVERY send so the stream stays aligned across runs whichever
      // faults actually fire.
      Rng& rng = link_rng(from, to);
      const bool dropped = rng.next_bool(rule->drop);
      duplicate = rng.next_bool(rule->duplicate);
      if (rule->delay_max_us > 0) {
        delay_us = rng.next_in(rule->delay_min_us, rule->delay_max_us);
      }
      const bool reordered = rng.next_bool(rule->reorder);
      if (reordered) {
        delay_us += rng.next_in(kReorderDelayMinUs, kReorderDelayMaxUs);
        stats_.reorders += 1;
        flight_fault(frame_flight_id(from, frame), obs::FaultKind::kReorder);
      }
      if (dropped) {
        stats_.drops += 1;
        flight_fault(frame_flight_id(from, frame), obs::FaultKind::kDrop);
        return;
      }
      if (delay_us > 0) {
        stats_.delays += 1;
        if (!reordered) {
          flight_fault(frame_flight_id(from, frame), obs::FaultKind::kDelay);
        }
      }
      if (duplicate) {
        stats_.duplicates += 1;
        flight_fault(frame_flight_id(from, frame),
                     obs::FaultKind::kDuplicate);
      }
    }
    stats_.forwarded += 1;
  }

  if (delay_us > 0) {
    inner_.schedule(delay_us, [this, from, to, frame] {
      inner_.send(from, to, frame);
    });
  } else {
    inner_.send(from, to, frame);
  }
  if (duplicate) {
    inner_.schedule(delay_us + kDuplicateOffsetUs,
                    [this, from, to, frame = std::move(frame)] {
                      inner_.send(from, to, frame);
                    });
  }
}

void ChaosTransport::schedule(SimTime delay_us, std::function<void()> action) {
  inner_.schedule(delay_us, std::move(action));
}

SimTime ChaosTransport::now_us() const { return inner_.now_us(); }

ChaosTransport::ChaosStats ChaosTransport::stats() const {
  const LockGuard guard(mutex_);
  return stats_;
}

}  // namespace cbc::fault
