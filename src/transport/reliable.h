// Loss-recovery layer: reliable, duplicate-free (but unordered) delivery.
//
// The paper's ordering layers assume every message eventually reaches
// every member ("the dependency is a stable information ... eventually
// satisfiable at all members", §3.1). ReliableEndpoint provides exactly
// that guarantee over a lossy/duplicating transport — and nothing more:
// it deliberately delivers out of order, leaving reordering visible to
// the causal/total layers whose job it is to mask it.
//
// Mechanism:
//  - per (source, destination) link sequence numbers; receivers dedupe
//    against a PrefixSeqSet (the contiguous prefix + the seqs above it);
//  - receivers with detected gaps periodically send control frames
//    carrying (cumulative ack, contiguous floor, missing list) — fast NACK
//    recovery. The ack is the floor capped by the ack ceiling (see
//    set_ack_ceiling); without a ceiling the two are equal;
//  - senders with unacked data periodically retransmit it, starting above
//    the receiver's last reported floor — this covers dropped *tail*
//    messages that no gap would ever reveal, even while a ceiling holds
//    back the acks of everything below them;
//  - receivers ack duplicates immediately so retransmission converges;
//  - retransmits toward a silent peer back off exponentially (with
//    deterministic jitter) up to 16 * retransmit_interval_us, so a dead
//    peer degrades to a trickle instead of a fixed-period storm;
//  - an opt-in heartbeat failure detector: liveness is piggybacked on any
//    received frame, an explicit kHeartbeat covers idle links, and peers
//    silent past suspect_after_us raise suspect/alive events;
//  - a restarted receiver whose window predates what the sender still
//    retains is fast-forwarded by a kWindowBase frame (crash recovery:
//    everything below the sender's retained window was acked by the old
//    incarnation, hence covered by the recovery baseline);
//  - out-of-band frames (kOob) carry unsequenced payloads past the link
//    state to an oob_handler — the carrier of pre-stack exchanges, whose
//    clients build and parse them with oob_frame() / oob_payload().
// All timers except the (opt-in) liveness timer are armed only while their
// condition holds, so a quiescent system schedules no events (required for
// Scheduler::run() to finish).
//
// Zero-copy: the 9-byte data header [u8 type][u64 seq] is prepended once
// when the data frame is built; the retransmit buffer stores that same
// SharedBuffer, and receivers hand the payload upward as a sub-frame of
// the arrived buffer. The only copy on the reliable path is the single
// header-prepend encode at first send.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "obs/hooks.h"
#include "obs/metrics.h"
#include "transport/transport.h"
#include "util/buffer.h"
#include "util/prefix_seq_set.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace cbc {

/// Reliability statistics for one endpoint.
struct ReliableStats {
  std::uint64_t data_sent = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t control_frames = 0;
  /// Frames dropped because they could not be parsed (truncated, unknown
  /// type, or a sequence number beyond the forward window). On a real
  /// datagram transport these are untrusted bytes — dropped, never fatal.
  std::uint64_t malformed_frames = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t suspect_events = 0;  ///< peers newly marked suspected
  std::uint64_t alive_events = 0;    ///< suspected peers heard from again
  /// Receive windows fast-forwarded by a sender's kWindowBase frame (a
  /// restarted receiver skipping history the sender no longer retains).
  std::uint64_t window_resyncs = 0;
  /// Peers whose retransmit backoff reached its cap.
  std::uint64_t peer_unresponsive_events = 0;
  std::uint64_t oob_frames = 0;  ///< out-of-band frames received
  /// Pairwise clock-offset samples completed (heartbeat echo round trips).
  std::uint64_t clock_samples = 0;
};

/// One member's reliable link bundle over a Transport.
///
/// Thread-safety: all state is guarded by one mutex, so besides
/// SimTransport (single-threaded) the endpoint works over
/// net::UdpTransport while a test or tool thread sends and the loop thread
/// runs its handlers and timers. The upward handler is invoked without
/// the lock held.
class ReliableEndpoint {
 public:
  using Handler = std::function<void(NodeId from, const WireFrame& frame)>;

  struct Options {
    SimTime control_interval_us = 2000;  ///< NACK-scan / delayed-ack period
    /// Sender-side retransmit period for unacked data. Must comfortably
    /// exceed one round trip plus the receiver's delayed-ack interval or
    /// healthy traffic is retransmitted spuriously. 0 means
    /// 5 * control_interval_us.
    SimTime retransmit_interval_us = 0;
    /// Explicit idle-link heartbeat period; liveness is otherwise
    /// piggybacked on data/control traffic. 0 disables heartbeats (and,
    /// with suspect_after_us = 0, the whole failure detector — the default,
    /// so quiescent sim runs schedule no periodic events). When only
    /// suspect_after_us is set, defaults to suspect_after_us / 4.
    SimTime heartbeat_interval_us = 0;
    /// A monitored peer not heard from (any frame) for this long is marked
    /// suspected; `on_liveness(peer, false)` fires, and `(peer, true)` when
    /// it is heard from again. 0 disables the failure detector.
    SimTime suspect_after_us = 0;
    /// Suspect/alive transitions for monitored peers (see monitor_peers).
    /// Invoked without the endpoint lock held, on a transport thread.
    std::function<void(NodeId peer, bool alive)> on_liveness{};
    /// Receiver of out-of-band frames (kOob) — unsequenced, unreliable
    /// payloads riding the same endpoint (e.g. state-transfer request/
    /// response). Invoked without the lock held; unset means oob frames
    /// are counted and dropped.
    std::function<void(NodeId from, std::span<const std::uint8_t> payload)>
        oob_handler{};
    bool enabled = true;  ///< false: pass-through (zero overhead on a
                          ///< loss-free transport such as default sim runs)
    /// Observability sinks (metrics collector for ReliableStats).
    /// Default: off. Retransmits and duplicate drops are journaled in
    /// the flight ring regardless.
    obs::Hooks obs{};
  };

  /// Registers an endpoint on `transport` (which must outlive this).
  ReliableEndpoint(Transport& transport, Handler handler)
      : ReliableEndpoint(transport, std::move(handler), Options{}) {}
  ReliableEndpoint(Transport& transport, Handler handler, Options options);

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  /// This endpoint's transport id.
  [[nodiscard]] NodeId id() const { return id_; }

  /// Sends `payload` reliably to `to`.
  void send(NodeId to, SharedBuffer payload);
  void send(NodeId to, std::vector<std::uint8_t> payload) {
    send(to, make_buffer(std::move(payload)));
  }

  /// Sends an out-of-band frame: unsequenced, unacked, not retransmitted.
  /// The peer's oob_handler (if set) receives the payload. Carrier for
  /// pre-stack exchanges such as state transfer.
  void send_oob(NodeId to, std::span<const std::uint8_t> payload);

  /// Starts liveness monitoring of `peers` (requires suspect_after_us
  /// > 0). Each peer starts alive with `last heard = now`; a
  /// `<prefix>.peer_alive.<id>` gauge is exported per peer when metrics
  /// are attached. Call once, after construction.
  void monitor_peers(const std::vector<NodeId>& peers);

  /// Fast-forwards every per-link send sequence to at least `next_seq`
  /// (existing links and links created later). Recovery hook: a member
  /// restored from a checkpoint re-enters with the link sequence its old
  /// incarnation had reached, so receivers' contiguous windows line up.
  void fast_forward_send_seq(SeqNo next_seq);

  /// Caps the cumulative ack advertised to `peer` at `ceiling`. Frames
  /// above the ceiling are still received, delivered, and dup-suppressed —
  /// but never acknowledged, so the sender retains them. Control frames
  /// still report the real floor, so the sender resends only what lies
  /// above it. Checkpointing nodes advance the ceiling to the
  /// persisted frontier after every flush: anything this node ever acked
  /// is then recoverable from its own checkpoint, so a crash between
  /// stable points cannot lose frames the senders already released.
  /// Raising the ceiling emits an immediate control frame so senders can
  /// prune promptly.
  void set_ack_ceiling(NodeId peer, SeqNo ceiling);

  /// Total data frames awaiting acknowledgement across all links (0 on a
  /// fully-acked endpoint — the safe moment to crash in tests).
  [[nodiscard]] std::size_t unacked_total() const;

  [[nodiscard]] ReliableStats stats() const;

  /// `payload` as the out-of-band frame send_oob() puts on the wire, for
  /// a client that has no endpoint.
  [[nodiscard]] static std::vector<std::uint8_t> oob_frame(
      std::span<const std::uint8_t> payload);
  /// The payload of an out-of-band frame; nullopt for any other frame.
  [[nodiscard]] static std::optional<std::span<const std::uint8_t>>
  oob_payload(std::span<const std::uint8_t> frame);

 private:
  enum class FrameType : std::uint8_t {
    kData = 1,
    kControl = 2,
    // [u8][i64 t_origin][i64 echo_origin][i64 echo_rx] — explicit
    // liveness when a link idles. The three wall-clock timestamps are the
    // clock-offset piggyback (NTP-style: my send time plus an echo of
    // your last heartbeat's send/receive pair; an echo of 0 means none
    // has arrived yet).
    kHeartbeat = 3,
    kWindowBase = 4,   // [u8][u64 base] — lowest seq the sender retains
    kOob = 5,          // [u8][payload] — out-of-band passthrough
  };

  /// Bytes of the [u8 type][u64 seq] prefix of a data frame.
  static constexpr std::size_t kDataHeaderBytes = 9;

  struct PeerSendState {
    SeqNo next_seq = 1;
    std::map<SeqNo, SharedBuffer> unacked;  // seq -> full data frame
    /// The contiguous floor in the receiver's last control frame. Unacked
    /// frames at or below it arrived; only its ack ceiling keeps them.
    SeqNo receiver_floor = 0;
    /// Exponential-backoff state: current interval (0 = base) and the
    /// absolute time this link's next retransmit is allowed.
    SimTime backoff_us = 0;
    SimTime next_retransmit_us = 0;
    bool unresponsive_reported = false;
  };
  struct PeerLiveness {
    SimTime last_heard_us = 0;
    SimTime last_sent_us = 0;
    bool suspected = false;
    obs::Gauge* alive_gauge = nullptr;
  };
  /// Clock-offset estimation state for one monitored peer, from
  /// NTP-style timestamp echoes piggybacked on the liveness heartbeats
  /// (see on_liveness_timer). Exported as `clock.offset_us.<peer>` /
  /// `clock.rtt_us.<peer>` gauges when metrics are attached, and
  /// journaled as kClockOffset flight records (decoded as `clock_offset`
  /// trace instants) so `cbc_trace_merge --align` can shift node
  /// timelines onto one clock.
  struct PeerClock {
    /// Send timestamp inside the peer's last heartbeat, and the local
    /// wall clock when it arrived — echoed back in our next heartbeat.
    std::int64_t last_rx_origin_us = 0;
    std::int64_t last_rx_wall_us = 0;
    /// (peer wall clock − local wall clock) and the round trip, both
    /// EWMA-smoothed over `samples` completed echoes.
    double offset_us = 0.0;
    double rtt_us = 0.0;
    std::uint64_t samples = 0;
    obs::Gauge* offset_gauge = nullptr;
    obs::Gauge* rtt_gauge = nullptr;
  };
  struct PeerRecvState {
    PrefixSeqSet received;
    SeqNo last_acked = 0;  // floor last sent in a control frame
    /// Highest seq this node may acknowledge (see set_ack_ceiling).
    SeqNo ack_ceiling = ~static_cast<SeqNo>(0);
    [[nodiscard]] bool has_gap() const { return !received.above().empty(); }
    [[nodiscard]] bool ack_pending() const {
      return received.floor() > last_acked;
    }
  };

  void on_frame(NodeId from, const WireFrame& frame);
  /// Folds one completed heartbeat echo (t1 our send, t2 peer rx, t3
  /// peer send, t4 our rx — wall-clock micros) into the peer's offset
  /// estimate. Returns true when the estimate changed (the caller then
  /// journals the kClockOffset flight record).
  bool update_clock_offset(NodeId from, std::int64_t t1, std::int64_t t2,
                           std::int64_t t3, std::int64_t t4)
      CBC_REQUIRES(mutex_);
  /// Builds the framed [header][payload] buffer for one data message.
  [[nodiscard]] SharedBuffer make_data_frame(SeqNo seq,
                                             const SharedBuffer& payload) const;
  /// Control frame to `source` with our cumulative ack, contiguous floor
  /// and missing seqs.
  void send_control_frame(NodeId source);
  void on_sender_timer();
  void on_receiver_timer();
  void on_liveness_timer();
  // All three arm at most one timer each.
  void maybe_arm_sender_timer() CBC_REQUIRES(mutex_);
  void maybe_arm_receiver_timer() CBC_REQUIRES(mutex_);
  void maybe_arm_liveness_timer() CBC_REQUIRES(mutex_);
  /// Notes an incoming frame from `from`; returns true when that flips a
  /// suspected peer back to alive (caller fires on_liveness(from, true)
  /// after releasing the lock).
  bool note_heard(NodeId from, SimTime now) CBC_REQUIRES(mutex_);
  /// Notes outgoing traffic toward `to` (suppresses the explicit
  /// heartbeat while the link is busy).
  void note_sent(NodeId to, SimTime now) CBC_REQUIRES(mutex_);
  /// Advances one link's backoff after a retransmit pass, counting a
  /// peer_unresponsive_event when it first reaches the cap.
  void schedule_next_retransmit(PeerSendState& peer, SimTime now)
      CBC_REQUIRES(mutex_);

  Transport& transport_;
  Handler handler_;
  Options options_;
  NodeId id_ = kNoNode;

  mutable Mutex mutex_{kRankReliable, "reliable link state"};
  std::map<NodeId, PeerSendState> send_state_ CBC_GUARDED_BY(mutex_);
  std::map<NodeId, PeerRecvState> recv_state_ CBC_GUARDED_BY(mutex_);
  std::map<NodeId, PeerLiveness> liveness_ CBC_GUARDED_BY(mutex_);
  std::map<NodeId, PeerClock> clocks_ CBC_GUARDED_BY(mutex_);
  Rng backoff_rng_ CBC_GUARDED_BY(mutex_){0};
  // fast_forward floor for lazily-made links
  SeqNo send_seq_floor_ CBC_GUARDED_BY(mutex_) = 1;
  bool sender_timer_armed_ CBC_GUARDED_BY(mutex_) = false;
  SimTime sender_timer_deadline_ CBC_GUARDED_BY(mutex_) = 0;
  bool receiver_timer_armed_ CBC_GUARDED_BY(mutex_) = false;
  bool liveness_timer_armed_ CBC_GUARDED_BY(mutex_) = false;
  ReliableStats stats_ CBC_GUARDED_BY(mutex_);
  // Last member: unregisters before the stats it reads are torn down.
  obs::CollectorHandle collector_;
};

}  // namespace cbc
