#include "transport/reliable.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace cbc {
namespace {

/// The per-peer retransmit backoff doubles (with jitter) from
/// retransmit_interval_us up to this multiple of it, so a dead peer
/// degrades to a trickle instead of a fixed-period storm.
constexpr SimTime kBackoffCapFactor = 16;
/// Seed of the retransmit-jitter stream (deterministic backoff).
constexpr std::uint64_t kBackoffSeed = 0xB0FFULL;
/// Cap on the missing-seq list of one control frame. Bounds both the frame
/// size and the scan cost when a corrupt sequence number opens a huge
/// apparent gap; the remainder is NACKed on later scans.
constexpr std::size_t kMaxNackEntries = 512;
/// Cap on data frames retransmitted per sender-timer tick (lowest sequence
/// numbers first). Keeps a dead peer from turning the retransmit timer
/// into a line-rate traffic storm.
constexpr std::size_t kMaxRetransmitBurst = 64;
/// Data frames whose seq jumps more than this far past the contiguous
/// prefix are counted malformed and dropped: a genuine sender can only run
/// ahead by what it has actually sent, so a larger jump is a corrupt or
/// forged header that would poison gap tracking.
constexpr SeqNo kMaxForwardWindow = 1u << 20;

}  // namespace

ReliableEndpoint::ReliableEndpoint(Transport& transport, Handler handler,
                                   Options options)
    : transport_(transport), handler_(std::move(handler)),
      options_(std::move(options)) {
  require(static_cast<bool>(handler_), "ReliableEndpoint: empty handler");
  require(options_.control_interval_us > 0,
          "ReliableEndpoint: control interval must be positive");
  if (options_.retransmit_interval_us == 0) {
    options_.retransmit_interval_us = 5 * options_.control_interval_us;
  }
  require(options_.retransmit_interval_us > 0,
          "ReliableEndpoint: retransmit interval must be positive");
  if (options_.suspect_after_us > 0 && options_.heartbeat_interval_us == 0) {
    options_.heartbeat_interval_us = options_.suspect_after_us / 4;
  }
  require(options_.suspect_after_us == 0 ||
              options_.heartbeat_interval_us < options_.suspect_after_us,
          "ReliableEndpoint: heartbeat interval must beat the suspect "
          "timeout");
  backoff_rng_ = Rng(kBackoffSeed);
  id_ = transport_.add_endpoint([this](NodeId from, const WireFrame& frame) {
    on_frame(from, frame);
  });
  if (options_.obs.prefix.empty()) {
    options_.obs.prefix = "reliable";
  }
  if (options_.obs.any()) {
    // Scrape-time migration of ReliableStats onto the registry: the
    // legacy struct stays the storage (stats() accessors keep working);
    // the collector reads it under the endpoint lock when scraped.
    collector_ = options_.obs.metrics->register_collector(
        [this](obs::CollectorSink& sink) {
          const ReliableStats s = stats();
          const std::string& prefix = options_.obs.prefix;
          sink.counter(prefix + ".data_sent", s.data_sent);
          sink.counter(prefix + ".data_delivered", s.data_delivered);
          sink.counter(prefix + ".duplicates_suppressed",
                       s.duplicates_suppressed);
          sink.counter(prefix + ".retransmissions", s.retransmissions);
          sink.counter(prefix + ".control_frames", s.control_frames);
          sink.counter(prefix + ".malformed_frames", s.malformed_frames);
          sink.counter(prefix + ".heartbeats_sent", s.heartbeats_sent);
          sink.counter(prefix + ".heartbeats_received", s.heartbeats_received);
          sink.counter(prefix + ".suspect_events", s.suspect_events);
          sink.counter(prefix + ".alive_events", s.alive_events);
          sink.counter(prefix + ".window_resyncs", s.window_resyncs);
          sink.counter(prefix + ".peer_unresponsive_events",
                       s.peer_unresponsive_events);
          sink.counter(prefix + ".oob_frames", s.oob_frames);
          sink.counter("clock.samples", s.clock_samples);
        });
  }
}

void ReliableEndpoint::send(NodeId to, SharedBuffer payload) {
  require(payload != nullptr, "ReliableEndpoint::send: null payload");
  if (!options_.enabled) {
    transport_.send(id_, to, std::move(payload));
    return;
  }
  SharedBuffer frame;
  {
    const LockGuard guard(mutex_);
    PeerSendState& peer = send_state_[to];
    if (peer.next_seq < send_seq_floor_) {
      peer.next_seq = send_seq_floor_;  // link created after a recovery
    }
    const SeqNo seq = peer.next_seq++;
    frame = make_data_frame(seq, payload);
    peer.unacked.emplace(seq, frame);
    if (peer.next_retransmit_us == 0) {
      peer.next_retransmit_us =
          transport_.now_us() + options_.retransmit_interval_us;
    }
    stats_.data_sent += 1;
    note_sent(to, transport_.now_us());
    maybe_arm_sender_timer();
    // With lockstep link seqs (the i-th broadcast rides seq i), this is
    // the wire-departure stamp of message {self, seq} toward `to`.
    obs::flight_record(obs::FlightEvent::kWireTx, MessageId{id_, seq}, to);
  }
  transport_.send(id_, to, std::move(frame));
}

void ReliableEndpoint::send_oob(NodeId to,
                                std::span<const std::uint8_t> payload) {
  {
    const LockGuard guard(mutex_);
    note_sent(to, transport_.now_us());
  }
  transport_.send(id_, to, make_buffer(oob_frame(payload)));
}

std::vector<std::uint8_t> ReliableEndpoint::oob_frame(
    std::span<const std::uint8_t> payload) {
  Writer frame;
  frame.u8(static_cast<std::uint8_t>(FrameType::kOob));
  frame.raw(payload);
  return frame.take();
}

std::optional<std::span<const std::uint8_t>> ReliableEndpoint::oob_payload(
    std::span<const std::uint8_t> frame) {
  if (frame.empty() || frame[0] != static_cast<std::uint8_t>(FrameType::kOob)) {
    return std::nullopt;
  }
  return frame.subspan(1);
}

SharedBuffer ReliableEndpoint::make_data_frame(
    SeqNo seq, const SharedBuffer& payload) const {
  // The one copy on the reliable path: prefixing the header forces a fresh
  // allocation. The result is shared by the first send and all retransmits.
  Writer frame;
  frame.u8(static_cast<std::uint8_t>(FrameType::kData));
  frame.u64(seq);
  frame.raw(payload->bytes());
  return frame.take_shared();
}

void ReliableEndpoint::send_control_frame(NodeId source) {
  Writer frame;
  {
    const LockGuard guard(mutex_);
    PeerRecvState& peer = recv_state_[source];
    const SeqNo floor = peer.received.floor();
    peer.last_acked = floor;
    std::vector<std::uint64_t> missing;
    if (peer.has_gap()) {
      // Capped: bounds the control frame and the scan even if the gap is
      // enormous; later scans pick up where this one stopped once the low
      // seqs are recovered and the floor advances.
      const SeqNo highest = *peer.received.above().rbegin();
      for (SeqNo seq = floor + 1;
           seq < highest && missing.size() < kMaxNackEntries; ++seq) {
        if (!peer.received.contains(seq)) {
          missing.push_back(seq);
        }
      }
    }
    frame.u8(static_cast<std::uint8_t>(FrameType::kControl));
    frame.u64(std::min(floor, peer.ack_ceiling));
    frame.u64(floor);
    frame.u64_vec(missing);
    stats_.control_frames += 1;
    note_sent(source, transport_.now_us());
  }
  transport_.send(id_, source, frame.take_shared());
}

void ReliableEndpoint::on_frame(NodeId from, const WireFrame& frame) {
  if (!options_.enabled) {
    handler_(from, frame);
    return;
  }
  // Any frame at all — even one that fails to parse — proves the peer's
  // process is up: liveness is piggybacked on the whole receive path.
  bool came_alive = false;
  {
    const LockGuard guard(mutex_);
    came_alive = note_heard(from, transport_.now_us());
  }
  if (came_alive && options_.on_liveness) {
    options_.on_liveness(from, true);
  }
  // The reliable header comes off an untrusted wire: truncation, an
  // unknown type, or an absurd sequence number is counted and dropped, so
  // that one corrupt datagram cannot take down the receive path. Only the
  // header parse is guarded — an upper layer's parse errors are its own.
  FrameType type{};
  SeqNo seq = 0;
  SeqNo receiver_floor = 0;  // control frames: the peer's real floor
  std::vector<std::uint64_t> missing;
  std::int64_t hb_origin_us = 0;  // heartbeat timestamps
  std::int64_t hb_echo_origin_us = 0;
  std::int64_t hb_echo_rx_us = 0;
  try {
    Reader reader(frame.bytes());
    type = static_cast<FrameType>(reader.u8());
    if (type == FrameType::kData) {
      seq = reader.u64();
    } else if (type == FrameType::kControl) {
      seq = reader.u64();  // cumulative ack
      receiver_floor = reader.u64();
      missing = reader.u64_vec();
    } else if (type == FrameType::kWindowBase) {
      seq = reader.u64();  // lowest seq the sender retains
    } else if (type == FrameType::kHeartbeat) {
      hb_origin_us = reader.i64();  // clock-offset piggyback
      hb_echo_origin_us = reader.i64();
      hb_echo_rx_us = reader.i64();
    } else if (type == FrameType::kOob) {
      // No further header.
    } else {
      throw SerdeError("ReliableEndpoint: unknown frame type");
    }
  } catch (const SerdeError&) {
    const LockGuard guard(mutex_);
    stats_.malformed_frames += 1;
    return;
  }
  if (type == FrameType::kHeartbeat) {
    const std::int64_t wall_now = obs::wall_now_us();
    const LockGuard guard(mutex_);
    stats_.heartbeats_received += 1;
    if (hb_origin_us > 0) {
      PeerClock& clock = clocks_[from];
      clock.last_rx_origin_us = hb_origin_us;
      clock.last_rx_wall_us = wall_now;
      // NTP exchange completed: t1 = our send the peer echoed, t2 = peer's
      // receipt of it, t3 = peer's send of THIS frame, t4 = now.
      if (hb_echo_origin_us > 0 &&
          update_clock_offset(from, hb_echo_origin_us, hb_echo_rx_us,
                              hb_origin_us, wall_now)) {
        // Two's-complement signed offset; --align reads it back.
        const auto offset_us = static_cast<std::int64_t>(clock.offset_us);
        obs::flight_record(obs::FlightEvent::kClockOffset, MessageId{from, 0},
                           static_cast<std::uint64_t>(offset_us));
      }
    }
    return;
  }
  if (type == FrameType::kOob) {
    {
      const LockGuard guard(mutex_);
      stats_.oob_frames += 1;
    }
    if (options_.oob_handler) {
      options_.oob_handler(from, frame.subframe(1).bytes());
    }
    return;
  }
  if (type == FrameType::kWindowBase) {
    // The sender told us the lowest sequence it still retains: everything
    // below was acknowledged by this node's previous incarnation, so it is
    // covered by the recovery baseline — skip ahead instead of NACKing
    // history that can never be retransmitted.
    bool resynced = false;
    {
      const LockGuard guard(mutex_);
      PrefixSeqSet& received = recv_state_[from].received;
      if (seq == 0 || seq > received.floor() + 1 + kMaxForwardWindow) {
        stats_.malformed_frames += 1;
        return;
      }
      if (seq - 1 > received.floor()) {
        received.raise_floor(seq - 1);
        stats_.window_resyncs += 1;
        resynced = true;
        maybe_arm_receiver_timer();
      }
    }
    if (resynced) {
      // Ack the new window immediately so the sender stops replying.
      send_control_frame(from);
    }
    return;
  }
  if (type == FrameType::kData) {
    bool duplicate = false;
    {
      const LockGuard guard(mutex_);
      PrefixSeqSet& received = recv_state_[from].received;
      if (seq > received.floor() + kMaxForwardWindow) {
        stats_.malformed_frames += 1;
        return;
      }
      duplicate = received.contains(seq);
      if (duplicate) {
        stats_.duplicates_suppressed += 1;
        obs::flight_record(obs::FlightEvent::kDupDrop, MessageId{from, seq},
                           from);
      } else {
        received.insert(seq);
        stats_.data_delivered += 1;
        maybe_arm_receiver_timer();
        // Lockstep link seqs: seq from this peer IS its broadcast seq.
        obs::flight_record(obs::FlightEvent::kWireRx, MessageId{from, seq},
                           from);
      }
    }
    if (duplicate) {
      // An immediate ack lets the retransmitting sender prune and stop.
      send_control_frame(from);
      return;
    }
    handler_(from, frame.subframe(kDataHeaderBytes));
    return;
  }
  const SeqNo cumulative = seq;
  std::vector<SharedBuffer> to_resend;
  SeqNo window_base = 0;
  {
    const LockGuard guard(mutex_);
    PeerSendState& peer = send_state_[from];
    peer.unacked.erase(peer.unacked.begin(),
                       peer.unacked.upper_bound(cumulative));
    peer.receiver_floor = receiver_floor;
    // A control frame is proof of a responsive peer: reset its backoff.
    peer.backoff_us = 0;
    peer.unresponsive_reported = false;
    if (!peer.unacked.empty()) {
      peer.next_retransmit_us = std::min(
          peer.next_retransmit_us,
          transport_.now_us() + options_.retransmit_interval_us);
      maybe_arm_sender_timer();
    } else {
      peer.next_retransmit_us = 0;
    }
    // A cumulative ack below our retained window means the receiver
    // restarted and is chasing history we pruned long ago (its old
    // incarnation acked it). Tell it where the window really starts.
    const SeqNo lowest =
        peer.unacked.empty() ? peer.next_seq : peer.unacked.begin()->first;
    if (cumulative + 1 < lowest) {
      window_base = lowest;
    }
    for (const SeqNo missing_seq : missing) {
      const auto it = peer.unacked.find(missing_seq);
      if (it != peer.unacked.end()) {
        to_resend.push_back(it->second);
        obs::flight_record(obs::FlightEvent::kRetransmit,
                           MessageId{id_, missing_seq}, from);
      }
    }
    stats_.retransmissions += to_resend.size();
  }
  if (window_base != 0) {
    Writer reply;
    reply.u8(static_cast<std::uint8_t>(FrameType::kWindowBase));
    reply.u64(window_base);
    transport_.send(id_, from, reply.take_shared());
  }
  for (SharedBuffer& data_frame : to_resend) {
    transport_.send(id_, from, std::move(data_frame));
  }
}

void ReliableEndpoint::on_sender_timer() {
  // Retransmit unacked data; covers dropped tail messages that gap-driven
  // NACKs can never discover. A pass starts above the receiver's reported
  // floor: below it every frame arrived and waits only on the receiver's
  // ack ceiling. The burst cap (lowest seqs first — the ones the receiver
  // needs to advance its prefix) keeps a slow or dead peer from turning
  // each tick into a storm, and each link that still has unacked data
  // after a pass backs off exponentially (reset by any control frame from
  // that peer), so a dead peer decays to a trickle.
  std::vector<std::pair<NodeId, SharedBuffer>> to_resend;
  {
    const LockGuard guard(mutex_);
    sender_timer_armed_ = false;
    const SimTime now = transport_.now_us();
    for (auto& [peer_id, peer] : send_state_) {
      if (peer.unacked.empty()) {
        peer.next_retransmit_us = 0;
        continue;
      }
      if (now < peer.next_retransmit_us ||
          to_resend.size() >= kMaxRetransmitBurst) {
        continue;
      }
      auto it = peer.unacked.upper_bound(peer.receiver_floor);
      std::size_t budget = kMaxRetransmitBurst - to_resend.size();
      if (it == peer.unacked.end()) {
        // The receiver reported every unacked frame. Resend the lowest
        // alone: a live receiver drops it and acks at once, and one that
        // restarted since the report learns of its gap.
        it = peer.unacked.begin();
        budget = 1;
      }
      for (; it != peer.unacked.end() && budget > 0; ++it, --budget) {
        to_resend.emplace_back(peer_id, it->second);
        obs::flight_record(obs::FlightEvent::kRetransmit,
                           MessageId{id_, it->first}, peer_id);
      }
      schedule_next_retransmit(peer, now);
    }
    stats_.retransmissions += to_resend.size();
    maybe_arm_sender_timer();
  }
  for (auto& [peer_id, data_frame] : to_resend) {
    transport_.send(id_, peer_id, std::move(data_frame));
  }
}

void ReliableEndpoint::on_receiver_timer() {
  std::vector<NodeId> gapped_sources;
  {
    const LockGuard guard(mutex_);
    receiver_timer_armed_ = false;
    for (const auto& [source, peer] : recv_state_) {
      if (peer.has_gap() || peer.ack_pending()) {
        gapped_sources.push_back(source);
      }
    }
  }
  for (const NodeId source : gapped_sources) {
    send_control_frame(source);
  }
  // Re-check after sending: new gaps may persist (missing data still in
  // flight), in which case the timer re-arms for another scan.
  const LockGuard guard(mutex_);
  maybe_arm_receiver_timer();
}

void ReliableEndpoint::schedule_next_retransmit(PeerSendState& peer,
                                                SimTime now) {
  const SimTime base = options_.retransmit_interval_us;
  const SimTime cap = kBackoffCapFactor * base;
  const SimTime interval =
      peer.backoff_us == 0 ? base : std::min(peer.backoff_us * 2, cap);
  peer.backoff_us = interval;
  // Jitter: uniform in [interval/2, interval] so a fleet of senders
  // backing off from the same event decorrelates instead of thundering.
  const SimTime half = interval / 2;
  const SimTime jittered =
      half + static_cast<SimTime>(backoff_rng_.next_below(
                 static_cast<std::uint64_t>(half) + 1));
  peer.next_retransmit_us = now + jittered;
  if (interval >= cap && !peer.unresponsive_reported) {
    peer.unresponsive_reported = true;
    stats_.peer_unresponsive_events += 1;
  }
}

void ReliableEndpoint::maybe_arm_sender_timer() {
  SimTime earliest = 0;
  for (const auto& [peer_id, peer] : send_state_) {
    if (peer.unacked.empty()) {
      continue;
    }
    if (earliest == 0 || peer.next_retransmit_us < earliest) {
      earliest = peer.next_retransmit_us;
    }
  }
  if (earliest == 0) {
    return;
  }
  if (sender_timer_armed_ && sender_timer_deadline_ <= earliest) {
    return;
  }
  // Either no timer is pending, or the pending one fires too late for the
  // new earliest deadline; schedule (possibly an extra) one. A stale extra
  // firing is harmless: it re-checks eligibility and re-arms.
  sender_timer_armed_ = true;
  sender_timer_deadline_ = earliest;
  const SimTime delay = std::max<SimTime>(1, earliest - transport_.now_us());
  transport_.schedule(delay, [this] { on_sender_timer(); });
}

void ReliableEndpoint::maybe_arm_receiver_timer() {
  if (receiver_timer_armed_) {
    return;
  }
  const bool needs_scan = std::any_of(
      recv_state_.begin(), recv_state_.end(), [](const auto& entry) {
        return entry.second.has_gap() || entry.second.ack_pending();
      });
  if (!needs_scan) {
    return;
  }
  receiver_timer_armed_ = true;
  transport_.schedule(options_.control_interval_us,
                      [this] { on_receiver_timer(); });
}

void ReliableEndpoint::monitor_peers(const std::vector<NodeId>& peers) {
  require(options_.enabled, "ReliableEndpoint: cannot monitor peers on a "
                            "pass-through endpoint");
  require(options_.suspect_after_us > 0,
          "ReliableEndpoint: monitor_peers requires suspect_after_us > 0");
  // Resolve gauges before taking the endpoint lock: gauge() takes the
  // registry lock, which ranks BELOW this endpoint's (kRankRegistry <
  // kRankReliable) — resolving under mutex_ would invert the lock order.
  std::map<NodeId, obs::Gauge*> gauges;
  std::map<NodeId, std::pair<obs::Gauge*, obs::Gauge*>> clock_gauges;
  if (options_.obs.any()) {
    for (const NodeId peer : peers) {
      if (peer != id_) {
        gauges[peer] = &options_.obs.metrics->gauge(
            options_.obs.prefix + ".peer_alive." + std::to_string(peer));
        clock_gauges[peer] = {
            &options_.obs.metrics->gauge("clock.offset_us." +
                                         std::to_string(peer)),
            &options_.obs.metrics->gauge("clock.rtt_us." +
                                         std::to_string(peer))};
      }
    }
  }
  const LockGuard guard(mutex_);
  const SimTime now = transport_.now_us();
  for (const NodeId peer : peers) {
    if (peer == id_ || liveness_.count(peer) != 0) {
      continue;
    }
    PeerLiveness liveness;
    liveness.last_heard_us = now;
    const auto gauge_it = gauges.find(peer);
    if (gauge_it != gauges.end()) {
      liveness.alive_gauge = gauge_it->second;
      liveness.alive_gauge->set(1.0);
    }
    liveness_.emplace(peer, liveness);
    const auto clock_it = clock_gauges.find(peer);
    if (clock_it != clock_gauges.end()) {
      PeerClock& clock = clocks_[peer];
      clock.offset_gauge = clock_it->second.first;
      clock.rtt_gauge = clock_it->second.second;
    }
  }
  maybe_arm_liveness_timer();
}

bool ReliableEndpoint::update_clock_offset(NodeId from, std::int64_t t1,
                                           std::int64_t t2, std::int64_t t3,
                                           std::int64_t t4) {
  const std::int64_t rtt = (t4 - t1) - (t3 - t2);
  // Reject unusable samples: a negative round trip (stale/forged echo)
  // or one so long the midpoint assumption is meaningless.
  if (t1 <= 0 || t2 <= 0 || rtt < 0 || rtt > 10'000'000) {
    return false;
  }
  const double offset =
      (static_cast<double>(t2 - t1) + static_cast<double>(t3 - t4)) / 2.0;
  PeerClock& clock = clocks_[from];
  if (clock.samples == 0) {
    clock.offset_us = offset;
    clock.rtt_us = static_cast<double>(rtt);
  } else {
    // EWMA smoothing: heartbeat cadence is slow, so favour new samples
    // enough to track drift but damp one-off queueing spikes.
    clock.offset_us += 0.25 * (offset - clock.offset_us);
    clock.rtt_us += 0.25 * (static_cast<double>(rtt) - clock.rtt_us);
  }
  clock.samples += 1;
  stats_.clock_samples += 1;
  if (clock.offset_gauge != nullptr) {
    clock.offset_gauge->set(static_cast<std::int64_t>(clock.offset_us));
  }
  if (clock.rtt_gauge != nullptr) {
    clock.rtt_gauge->set(static_cast<std::int64_t>(clock.rtt_us));
  }
  return true;
}

bool ReliableEndpoint::note_heard(NodeId from, SimTime now) {
  const auto it = liveness_.find(from);
  if (it == liveness_.end()) {
    return false;
  }
  it->second.last_heard_us = now;
  if (!it->second.suspected) {
    return false;
  }
  it->second.suspected = false;
  stats_.alive_events += 1;
  if (it->second.alive_gauge != nullptr) {
    it->second.alive_gauge->set(1.0);
  }
  return true;
}

void ReliableEndpoint::note_sent(NodeId to, SimTime now) {
  if (liveness_.empty()) {
    return;
  }
  const auto it = liveness_.find(to);
  if (it != liveness_.end()) {
    it->second.last_sent_us = now;
  }
}

void ReliableEndpoint::maybe_arm_liveness_timer() {
  if (liveness_timer_armed_ || liveness_.empty() ||
      options_.heartbeat_interval_us <= 0) {
    return;
  }
  liveness_timer_armed_ = true;
  transport_.schedule(options_.heartbeat_interval_us,
                      [this] { on_liveness_timer(); });
}

void ReliableEndpoint::on_liveness_timer() {
  std::vector<NodeId> to_heartbeat;
  std::vector<NodeId> newly_suspected;
  {
    const LockGuard guard(mutex_);
    liveness_timer_armed_ = false;
    const SimTime now = transport_.now_us();
    for (auto& [peer, liveness] : liveness_) {
      if (now - liveness.last_sent_us >= options_.heartbeat_interval_us) {
        liveness.last_sent_us = now;
        stats_.heartbeats_sent += 1;
        to_heartbeat.push_back(peer);
      }
      if (!liveness.suspected &&
          now - liveness.last_heard_us > options_.suspect_after_us) {
        liveness.suspected = true;
        stats_.suspect_events += 1;
        if (liveness.alive_gauge != nullptr) {
          liveness.alive_gauge->set(0.0);
        }
        newly_suspected.push_back(peer);
      }
    }
    maybe_arm_liveness_timer();
  }
  if (!to_heartbeat.empty()) {
    // Per-peer frames: each carries this send's wall timestamp plus an
    // echo of that peer's last heartbeat (its origin stamp and our
    // arrival stamp) — the three legs of the NTP offset exchange.
    for (const NodeId peer : to_heartbeat) {
      std::int64_t echo_origin = 0;
      std::int64_t echo_rx = 0;
      {
        const LockGuard guard(mutex_);
        const auto clock_it = clocks_.find(peer);
        if (clock_it != clocks_.end()) {
          echo_origin = clock_it->second.last_rx_origin_us;
          echo_rx = clock_it->second.last_rx_wall_us;
        }
      }
      Writer frame;
      frame.u8(static_cast<std::uint8_t>(FrameType::kHeartbeat));
      frame.i64(obs::wall_now_us());
      frame.i64(echo_origin);
      frame.i64(echo_rx);
      transport_.send(id_, peer, frame.take_shared());
    }
  }
  if (options_.on_liveness) {
    for (const NodeId peer : newly_suspected) {
      options_.on_liveness(peer, false);
    }
  }
}

void ReliableEndpoint::fast_forward_send_seq(SeqNo next_seq) {
  const LockGuard guard(mutex_);
  if (next_seq > send_seq_floor_) {
    send_seq_floor_ = next_seq;
  }
  for (auto& [peer_id, peer] : send_state_) {
    if (peer.next_seq < next_seq) {
      peer.next_seq = next_seq;
    }
  }
}

void ReliableEndpoint::set_ack_ceiling(NodeId peer, SeqNo ceiling) {
  require(options_.enabled,
          "ReliableEndpoint: ack ceilings need a sequencing endpoint");
  bool raised = false;
  {
    const LockGuard guard(mutex_);
    PeerRecvState& state = recv_state_[peer];
    raised = ceiling > state.ack_ceiling &&
             state.ack_ceiling < state.received.floor();
    state.ack_ceiling = ceiling;
  }
  if (raised) {
    send_control_frame(peer);
  }
}

std::size_t ReliableEndpoint::unacked_total() const {
  const LockGuard guard(mutex_);
  std::size_t total = 0;
  for (const auto& [peer_id, peer] : send_state_) {
    total += peer.unacked.size();
  }
  return total;
}

ReliableStats ReliableEndpoint::stats() const {
  const LockGuard guard(mutex_);
  return stats_;
}

}  // namespace cbc
