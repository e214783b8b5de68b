// cbc_node — one member of a replicated-object group over real UDP.
//
// The replicated object is chosen at runtime (--object counter|registry|
// document|card_game|set|queue — any catalog entry): the object's derived
// commutativity table drives the access protocol, its catalog workload
// hooks generate the round traffic, and its serialize hook feeds digests,
// checkpoints, and state transfer. The stack, the shared flags and the
// process shell are runtime::NodeRuntime's (src/runtime/node_runtime.h);
// this file is the round workload its apply hook drives.
//
// The workload is round-structured so that stable-point digests are
// deterministic across members even though UDP reorders freely:
//   - every member submits `ops_per_round` FIFO-chained commutative ops
//     (the object's catalog workload hook), then a commutative `nop`
//     round marker (FIFO-chained after them);
//   - the leader (node 0) submits the round's closing sync op (the
//     object's catalog sync op — `rd` for the counter) only after
//     delivering every live member's marker — so the sync message's
//     Occurs_After set covers all of the round's commutative traffic;
//   - members start round r+1 only after delivering sync r.
// Cycle membership is therefore causally forced: any interleaving the
// network produces yields the same digest chain at every member.
//
// SIGUSR1 is a graceful departure: broadcast a departing `nop` (which the
// FIFO chain orders after everything this member sent), stop submitting,
// keep serving retransmissions until SIGTERM.
//
// --observer joins without submitting anything (a restarted member whose
// per-link reliability state died with its previous incarnation: it can
// observe traffic but cannot rejoin the causal past without state
// transfer). --checkpoint, --recover and the heartbeat failure detector
// are the SIGKILL-recovery path of docs/ROBUSTNESS.md: the leader closes
// rounds without suspected members, and a recovered member re-enters the
// workload through a rejoin handshake with the leader.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/checkpoint.h"
#include "fault/state_transfer.h"
#include "net/cluster_config.h"
#include "object/catalog.h"
#include "object/value.h"
#include "obs/metrics.h"
#include "runtime/node_runtime.h"
#include "util/digest_window.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace {

namespace rt = cbc::runtime;

volatile std::sig_atomic_t g_depart_requested = 0;

void on_sigusr1(int) { g_depart_requested = 1; }

struct NodeArgs {
  rt::SharedFlags shared;
  std::string config_path;
  cbc::NodeId id = cbc::kNoNode;
  std::string object = "counter";  ///< catalog name of the replicated object
  std::uint64_t rounds = 10;
  std::uint64_t ops_per_round = 20;
  std::string discipline = "causal";  // or "total"
  bool observer = false;
  std::string trace_path;

  // Robustness knobs (docs/ROBUSTNESS.md).
  std::string checkpoint_path;
  bool recover = false;
  cbc::NodeId transfer_from = cbc::kNoNode;
  std::int64_t heartbeat_ms = 0;
  std::int64_t suspect_timeout_ms = 0;
  std::int64_t quiesce_at_round = -1;
};

void usage() {
  std::cerr
      << "usage: cbc_node --config FILE --id N [options]\n"
         "  --config FILE     cluster membership file (id host:port lines)\n"
         "  --id N            this member's id within the config\n"
         "  --object NAME     replicated object from the catalog (counter,\n"
         "                    registry, document, card_game, set, queue;\n"
         "                    default counter)\n"
         "  --rounds R        workload rounds (default 10; causal only)\n"
         "  --ops K           commutative ops per member per round "
         "(default 20)\n"
         "  --discipline D    causal (OSend, default) or total (ASend)\n"
         "  --observer        join without submitting (restarted member)\n"
         "  --trace FILE      write Chrome trace-event JSON here at "
         "SIGTERM\n"
         "  --checkpoint FILE persist a checkpoint at every stable point\n"
         "  --recover         restore from a live peer's checkpoint and "
         "rejoin\n"
         "  --transfer-from N fetch the checkpoint from member N\n"
         "  --suspect-timeout-ms N  suspect peers silent for N ms\n"
         "  --heartbeat-ms N  heartbeat period on idle links\n"
         "  --quiesce-at-round K  stop submitting after round K; write\n"
         "                    quiesced=1 when all sent frames are acked\n"
      << rt::kSharedUsage;
}

NodeArgs parse_args(int argc, char** argv) {
  // Round arithmetic runs in int64, so counts stay within its range.
  constexpr std::uint64_t kMaxCount = std::numeric_limits<std::int64_t>::max();
  NodeArgs args;
  bool rounds_given = false;
  rt::ArgReader in(argc, argv, 1);
  while (in.next()) {
    const std::string& flag = in.flag();
    if (args.shared.parse(in)) {
      continue;
    }
    if (flag == "--config") {
      args.config_path = in.value();
    } else if (flag == "--id") {
      args.id = in.number<cbc::NodeId>(0, cbc::kNoNode - 1);
    } else if (flag == "--object") {
      args.object = in.value();
    } else if (flag == "--rounds") {
      args.rounds = in.number<std::uint64_t>(0, kMaxCount);
      rounds_given = true;
    } else if (flag == "--ops") {
      args.ops_per_round = in.number<std::uint64_t>(0, kMaxCount);
    } else if (flag == "--discipline") {
      args.discipline = in.value();
    } else if (flag == "--observer") {
      args.observer = true;
    } else if (flag == "--trace") {
      args.trace_path = in.value();
    } else if (flag == "--checkpoint") {
      args.checkpoint_path = in.value();
    } else if (flag == "--recover") {
      args.recover = true;
    } else if (flag == "--transfer-from") {
      args.transfer_from = in.number<cbc::NodeId>(0, cbc::kNoNode - 1);
    } else if (flag == "--suspect-timeout-ms") {
      args.suspect_timeout_ms = in.number<std::int64_t>(1, rt::kMaxMillis);
    } else if (flag == "--heartbeat-ms") {
      args.heartbeat_ms = in.number<std::int64_t>(1, rt::kMaxMillis);
    } else if (flag == "--quiesce-at-round") {
      args.quiesce_at_round = in.number<std::int64_t>(0, kMaxCount);
    } else {
      usage();
      cbc::require(false, "unknown flag: " + flag);
    }
  }
  cbc::require(!args.config_path.empty(), "--config is required");
  cbc::require(args.id != cbc::kNoNode, "--id is required");
  cbc::require(args.discipline == "causal" || args.discipline == "total",
               "--discipline must be causal or total");
  cbc::require(args.discipline == "causal" || !rounds_given,
               "--rounds requires the causal discipline; --discipline total "
               "runs one shot of --ops per member");
  cbc::require(args.discipline == "causal" ||
                   (!args.recover && args.checkpoint_path.empty() &&
                    args.quiesce_at_round < 0),
               "--recover, --checkpoint and --quiesce-at-round require the "
               "causal discipline");
  cbc::require(!args.recover || (!args.observer && args.id != 0),
               "--recover excludes --observer and the leader (id 0)");
  return args;
}

/// One member: the shared runtime plus the round workload it drives.
class Node {
 public:
  Node(const NodeArgs& args, cbc::net::ClusterConfig config,
       std::optional<cbc::fault::Checkpoint> recovered)
      : args_(args),
        runtime_(args.shared, make_config(std::move(config))),
        entry_(runtime_.entry()),
        sync_kind_(entry_.sync_op.kind),
        marker_count_(runtime_.view().size(), 0),
        departed_(runtime_.view().size(), false),
        recovered_(std::move(recovered)),
        recovery_checkpoints_(
            runtime_.metrics().counter("recovery.checkpoints_written")),
        recovery_transfers_(
            runtime_.metrics().counter("recovery.transfers_served")),
        recovery_restored_(
            runtime_.metrics().gauge("recovery.restored_cycles")),
        recovery_checked_(
            runtime_.metrics().gauge("recovery.chain_checked_cycles")) {
    if (checkpoints_enabled() && !args_.observer) {
      // Start acknowledging nothing: a frame is only ever acked once a
      // flushed checkpoint covers it, so senders retain (and a restored
      // incarnation can recover) everything in between stable points.
      for (std::size_t m = 0; m < runtime_.view().size(); ++m) {
        if (m != args_.id) {
          osend().set_ack_ceiling(static_cast<cbc::NodeId>(m), 0);
        }
      }
    }
    if (recovered_.has_value()) {
      restore_from_checkpoint();
    }
  }

  int run() {
    runtime_.loop().post([this] { pump(); });
    return runtime_.run([this] { pump(); }, [this] { write_report(); });
  }

 private:
  [[nodiscard]] bool is_leader() const {
    return args_.id == 0 && !args_.observer;
  }

  [[nodiscard]] bool causal() const { return args_.discipline == "causal"; }

  rt::Config make_config(cbc::net::ClusterConfig cluster) {
    rt::Config config;
    config.members = cluster.to_view();
    config.cluster = std::move(cluster);
    config.self = args_.id;
    config.total_order = !causal();
    config.object = args_.object;
    config.on_apply = [this](const cbc::Delivery& delivery) {
      on_delivery(delivery);
    };
    if (causal()) {
      config.oob_handler = [this](cbc::NodeId from,
                                  std::span<const std::uint8_t> payload) {
        on_oob(from, payload);
      };
    }
    if (args_.suspect_timeout_ms > 0) {
      config.suspect_after_us = args_.suspect_timeout_ms * 1000;
      config.heartbeat_interval_us = args_.heartbeat_ms * 1000;
      config.on_liveness = [this](cbc::NodeId peer, bool alive) {
        on_liveness(peer, alive);
      };
    }
    config.flight_fallback = "cbc_node" + std::to_string(args_.id) + ".flight";
    config.trace_path = args_.trace_path;
    config.name = "cbc_node " + std::to_string(args_.id);
    return config;
  }

  cbc::OSendMember& osend() { return runtime_.replica().osend(); }
  rt::Replica& replica() { return runtime_.replica(); }

  /// Loop thread (reliability timers run on the event loop). The leader
  /// treats a suspected member like a departed one for round closure —
  /// rounds keep closing across a crash — and reverses that the moment
  /// the peer is heard again (or explicitly re-admitted).
  void on_liveness(cbc::NodeId peer, bool alive) {
    if (is_leader() && peer < departed_.size()) {
      departed_[peer] = !alive;
    }
    runtime_.loop().post([this] { pump(); });
  }

  /// Serves a recovering peer's StateRequest with the latest stable-point
  /// checkpoint, over the reliable layer's out-of-band frames — or with a
  /// refusal naming its size when it cannot fit one datagram.
  void on_oob(cbc::NodeId from, std::span<const std::uint8_t> payload) {
    if (!cbc::fault::parse_state_request(payload).has_value() ||
        !latest_checkpoint_.has_value()) {
      return;
    }
    osend().send_oob(from, cbc::fault::encode_state_reply(
                               *latest_checkpoint_,
                               runtime_.udp().max_datagram_bytes()));
    recovery_transfers_.inc();
  }

  /// Rebuilds local state from a live peer's transferred checkpoint, then
  /// marks this member as awaiting the leader's admission. Stable-point
  /// agreement makes the peer's chain interchangeable with our own lost
  /// one — asserted against any pre-crash checkpoint left on disk.
  void restore_from_checkpoint() {
    std::optional<cbc::fault::Checkpoint> own;
    if (!args_.checkpoint_path.empty()) {
      try {
        own = cbc::fault::Checkpoint::load(args_.checkpoint_path);
      } catch (const cbc::InvalidArgument&) {
        // No readable pre-crash checkpoint — nothing to cross-check.
      }
    }
    std::uint64_t checked = 0;
    if (own.has_value()) {
      // Each checkpoint holds the newest window of the chain; a digest
      // folds every earlier one, so agreeing where the windows overlap
      // is agreeing on the whole chain up to there.
      const cbc::DigestWindow mine = own->window();
      const cbc::DigestWindow peer = recovered_->window();
      const std::optional<std::uint64_t> diverged =
          cbc::first_divergent_cycle(mine, peer);
      cbc::require(!diverged.has_value(),
                   "recovery: stable digest chain diverges from the peer "
                   "at cycle " + std::to_string(diverged.value_or(0)));
      checked = cbc::overlap(mine, peer);
      if (checked == 0) {
        // One chain ran more than a window past the other: no cycle is
        // in both, so nothing vouches for the transferred chain. Say so
        // rather than pass silently.
        std::cerr << "cbc_node " << args_.id
                  << ": recovery: digest chain not cross-checked: the "
                     "pre-crash checkpoint holds cycles "
                  << mine.first() << ".." << mine.cycles
                  << ", the transferred one " << peer.first() << ".."
                  << peer.cycles << "\n";
      }
      // The pre-crash file can be AHEAD of the transferred snapshot (the
      // peer may not have closed the cycle we flushed last). Acks were
      // capped at our flushed frontier, so senders have pruned everything
      // the fresher chain covers — restore from whichever chain is longer
      // or the pruned prefix can never be retransmitted.
      if (own->cycles > recovered_->cycles) {
        recovered_ = std::move(own);
      }
    }
    const cbc::fault::Checkpoint& snapshot = *recovered_;
    const cbc::GroupView& view = runtime_.view();
    cbc::require(snapshot.frontier.width() == view.size(),
                 "recovery: checkpoint frontier width does not match the "
                 "cluster view");
    std::map<cbc::NodeId, cbc::SeqNo> floors;
    for (std::size_t rank = 0; rank < view.size(); ++rank) {
      floors[view.member_at(rank)] =
          snapshot.frontier.at(static_cast<cbc::NodeId>(rank));
    }
    runtime_.checker().restore(snapshot.cycles, snapshot.stable_digests,
                               std::move(floors));
    cbc::Reader state_reader(snapshot.app_state);
    replica().restore_state(cbc::object::Value::decode(state_reader),
                            snapshot.last_sync);
    // Baseline adoption also fast-forwards our send seqs above the
    // frontier's record of our own pre-crash broadcasts, so peers do not
    // discard our first new messages as duplicates.
    osend().adopt_baseline(snapshot.frontier);
    syncs_delivered_ = snapshot.cycles;
    current_round_ = static_cast<std::int64_t>(snapshot.cycles) - 1;
    awaiting_admission_ = true;
    latest_checkpoint_ = snapshot;
    apply_ack_ceilings(snapshot);
    recovery_restored_.set(static_cast<std::int64_t>(snapshot.cycles));
    recovery_checked_.set(static_cast<std::int64_t>(checked));
  }

  /// Raises the per-peer ack ceilings to `snapshot`'s frontier: the
  /// reliability layer may now acknowledge exactly what this persisted
  /// checkpoint covers (see OSendMember::set_ack_ceiling).
  void apply_ack_ceilings(const cbc::fault::Checkpoint& snapshot) {
    const cbc::GroupView& view = runtime_.view();
    for (std::size_t rank = 0; rank < view.size(); ++rank) {
      const cbc::NodeId member = view.member_at(rank);
      if (member != args_.id) {
        osend().set_ack_ceiling(
            member, snapshot.frontier.at(static_cast<cbc::NodeId>(rank)));
      }
    }
  }

  /// Runs on the loop thread only, once the replica has applied
  /// `delivery`: inspects it for workload control.
  void on_delivery(const cbc::Delivery& delivery) {
    const std::string kind =
        cbc::CommutativitySpec::kind_of(delivery.label());
    if (kind == "nop") {
      std::uint64_t tag = 0;
      try {
        cbc::Reader reader(delivery.payload());
        tag = reader.u64();
      } catch (const cbc::SerdeError&) {
        return;  // malformed marker payload; counted upstream
      }
      // Low two bits select the in-band marker protocol:
      //   0 round marker   (round << 2)
      //   1 departure      (((round+1) << 2) | 1)
      //   2 rejoin request ((proposed << 12) | (id << 2) | 2)
      //   3 admission      ((granted << 12) | (id << 2) | 3)
      switch (tag & 3) {
        case 0:
          marker_count_[delivery.sender] += 1;
          break;
        case 1:
          departed_[delivery.sender] = true;
          break;
        case 2:
          if (is_leader()) {
            grant_admission(tag);
          }
          break;
        default:
          on_admit(tag);
          break;
      }
    } else if (kind == sync_kind_) {
      syncs_delivered_ += 1;
      if (checkpoints_enabled()) {
        capture_checkpoint(delivery);
      }
    }
    runtime_.loop().post([this] { pump(); });
  }

  [[nodiscard]] bool checkpoints_enabled() const {
    return causal() && (!args_.checkpoint_path.empty() || args_.recover);
  }

  /// Runs once the replica has applied the sync, where the checkpoint is
  /// consistent by construction: the checker has folded this sync into
  /// the digest chain, the ordering layer's delivered prefix covers
  /// exactly the closed cycles (every next-cycle op causally follows this
  /// sync, so none can have been delivered yet), and the replica holds
  /// the agreed stable-point state — last_stable_state() once the sync's
  /// stable point is detected. The disk write is deferred to the next
  /// pump.
  void capture_checkpoint(const cbc::Delivery& sync) {
    cbc::fault::Checkpoint snapshot;
    snapshot.node = args_.id;
    snapshot.stable_digests = runtime_.checker().stable_digests();
    snapshot.cycles = runtime_.checker().stable_cycles();
    snapshot.last_sync = sync.id;
    snapshot.frontier = osend().delivered_prefix();
    cbc::Writer writer;
    replica().state().encode(writer);
    snapshot.app_state = writer.take();
    latest_checkpoint_ = std::move(snapshot);
    checkpoint_dirty_ = true;
  }

  void flush_checkpoint() {
    if (!checkpoint_dirty_) {
      return;
    }
    checkpoint_dirty_ = false;
    if (!args_.checkpoint_path.empty()) {
      latest_checkpoint_->save(args_.checkpoint_path);
    }
    apply_ack_ceilings(*latest_checkpoint_);
    recovery_checkpoints_.inc();
  }

  /// Leader side of the rejoin handshake. The granted round is clamped
  /// above every sync already submitted, and the recovering member is
  /// credited with markers for all skipped rounds — round closure then
  /// never waits on history it cannot replay. The admission nop is
  /// commutative: the next sync's Occurs_After set covers it, so the
  /// recovering member learns its start round before it can see the sync
  /// that opens it.
  void grant_admission(std::uint64_t tag) {
    const std::uint64_t proposed = tag >> 12;
    const auto who = static_cast<cbc::NodeId>((tag >> 2) & 0x3FF);
    if (who >= marker_count_.size() || who == args_.id) {
      return;
    }
    const std::uint64_t granted = std::max(proposed, syncs_submitted_ + 1);
    marker_count_[who] = std::max(marker_count_[who], granted);
    departed_[who] = false;
    replica().submit(cbc::object::nop(
        (granted << 12) | (static_cast<std::uint64_t>(who) << 2) | 3));
  }

  void on_admit(std::uint64_t tag) {
    const auto who = static_cast<cbc::NodeId>((tag >> 2) & 0x3FF);
    if (who != args_.id || !awaiting_admission_) {
      return;
    }
    const std::uint64_t granted = tag >> 12;
    current_round_ = static_cast<std::int64_t>(granted) - 1;
    awaiting_admission_ = false;
    write_progress();
  }

  void pump() {
    if (args_.observer) {
      write_progress();
      return;
    }
    if (g_depart_requested != 0 && !departure_submitted_) {
      // The departing nop is FIFO-chained after everything this member
      // has submitted, so delivering it proves our whole history arrived.
      const std::uint64_t tag =
          (static_cast<std::uint64_t>(current_round_ + 1) << 2) | 1;
      replica().submit(cbc::object::nop(tag));
      departure_submitted_ = true;
      write_report();  // role=departed; harness collects it pre-restart
      return;
    }
    if (departure_submitted_) {
      return;  // lingering: serve retransmissions until SIGTERM
    }
    flush_checkpoint();
    if (recovered_.has_value() && !rejoin_submitted_) {
      // Single-shot rejoin: Occurs_After(last restored sync), so every
      // member delivers it inside a cycle the leader has yet to close.
      const std::uint64_t tag = ((syncs_delivered_ + 1) << 12) |
                                (static_cast<std::uint64_t>(args_.id) << 2) |
                                2;
      replica().submit(cbc::object::nop(tag));
      rejoin_submitted_ = true;
      write_progress();
    }
    if (causal()) {
      pump_causal();
    } else {
      pump_total();
    }
  }

  void pump_causal() {
    // Start the next round once the previous round's sync has arrived —
    // unless we are quiesced (submissions stopped for a planned kill) or
    // still waiting for the leader to grant our post-recovery round.
    const bool quiesced_rounds = args_.quiesce_at_round >= 0 &&
                                 current_round_ >= args_.quiesce_at_round;
    if (!awaiting_admission_ && !quiesced_rounds &&
        current_round_ + 1 < static_cast<std::int64_t>(args_.rounds) &&
        syncs_delivered_ >= static_cast<std::uint64_t>(current_round_ + 1)) {
      current_round_ += 1;
      for (std::uint64_t op = 0; op < args_.ops_per_round; ++op) {
        replica().submit(entry_.workload_op(
            args_.id, static_cast<std::uint64_t>(current_round_), op));
      }
      replica().submit(cbc::object::nop(
          static_cast<std::uint64_t>(current_round_) << 2));
      write_progress();
    }
    if (quiesced_rounds) {
      write_progress();  // the harness polls for quiesced=1
    }
    if (is_leader()) {
      maybe_close_round();
    }
    if (!runtime_.report_written() && syncs_delivered_ >= args_.rounds) {
      // The last sync starts no round, so nothing else rewrites progress.
      write_progress();
      write_report();  // done; keep looping to serve retransmissions
      // A done report promises an on-disk metrics page too — a fast run
      // may finish before the first snapshot tick.
      runtime_.dump_metrics();
    }
  }

  void maybe_close_round() {
    // Close round r (submit its sync) only when every live member's
    // round-r marker has been delivered here — the sync's Occurs_After
    // set then covers all of round r's commutative traffic, which is what
    // makes cycle membership identical at every member.
    if (syncs_submitted_ != syncs_delivered_ ||
        syncs_submitted_ > static_cast<std::uint64_t>(current_round_) ||
        syncs_submitted_ >= args_.rounds) {
      return;
    }
    const std::uint64_t round = syncs_submitted_;
    for (std::size_t member = 0; member < runtime_.view().size();
         ++member) {
      if (!departed_[member] && marker_count_[member] < round + 1) {
        return;
      }
    }
    replica().submit(entry_.sync_op);
    syncs_submitted_ += 1;
  }

  void pump_total() {
    // Total-order mode: submit everything up front; the deterministic
    // round merge serializes it identically everywhere. One sync per
    // member closes one cycle per member.
    if (!total_submitted_) {
      total_submitted_ = true;
      for (std::uint64_t op = 0; op < args_.ops_per_round; ++op) {
        replica().submit(entry_.workload_op(args_.id, 0, op));
      }
      replica().submit(entry_.sync_op);
    }
    const std::uint64_t expected =
        runtime_.view().size() * (args_.ops_per_round + 1);
    write_progress();
    if (!runtime_.report_written() && runtime_.delivered() >= expected) {
      write_report();
      runtime_.dump_metrics();
    }
  }

  void write_progress() {
    if (args_.shared.progress_path.empty()) {
      return;
    }
    // quiesced=1 promises the member is safe to SIGKILL: it has stopped
    // submitting, delivered its own quiesce round's sync, and holds no
    // unacknowledged frames — nothing of its history can be orphaned.
    bool quiesced = false;
    if (args_.quiesce_at_round >= 0 && causal() &&
        current_round_ >= args_.quiesce_at_round &&
        syncs_delivered_ >
            static_cast<std::uint64_t>(args_.quiesce_at_round)) {
      quiesced = osend().reliable_quiescent();
    }
    runtime_.write_progress({{"round", std::to_string(current_round_)},
                             {"syncs", std::to_string(syncs_delivered_)},
                             {"quiesced", quiesced ? "1" : "0"},
                             {"admitted", awaiting_admission_ ? "0" : "1"},
                             {"id", std::to_string(args_.id)}});
  }

  void write_report() {
    const char* role = args_.observer          ? "observer"
                       : departure_submitted_  ? "departed"
                       : is_leader()           ? "leader"
                                               : "worker";
    const auto& stable = replica().last_stable_state();
    const cbc::net::UdpTransport::Stats udp = runtime_.udp().stats();
    runtime_.write_report({
        {"id", std::to_string(args_.id)},
        {"object", args_.object},
        {"role", role},
        {"done", syncs_delivered_ >= args_.rounds || !causal() ? "1" : "0"},
        {"rounds_started", std::to_string(current_round_ + 1)},
        {"syncs", std::to_string(syncs_delivered_)},
        {"stable_state", stable.has_value() ? stable->to_string() : "none"},
        {"recovered", args_.recover ? "1" : "0"},
        {"malformed", std::to_string(runtime_.checker().stats().malformed)},
        {"datagrams_sent", std::to_string(udp.datagrams_sent)},
        {"datagrams_received", std::to_string(udp.datagrams_received)},
    });
  }

  NodeArgs args_;
  rt::NodeRuntime runtime_;
  // Replicated-object plumbing (resolved once in the constructor).
  const cbc::object::CatalogEntry& entry_;
  std::string sync_kind_;

  // Workload state (loop-thread-only).
  std::int64_t current_round_ = -1;  // last round whose ops were submitted
  std::uint64_t syncs_delivered_ = 0;
  std::uint64_t syncs_submitted_ = 0;       // leader only
  std::vector<std::uint64_t> marker_count_;  // leader: nops per sender
  std::vector<bool> departed_;               // leader: departure seen
  bool total_submitted_ = false;
  bool departure_submitted_ = false;

  // Robustness state (loop-thread-only once the loop runs).
  std::optional<cbc::fault::Checkpoint> recovered_;  // transferred at boot
  std::optional<cbc::fault::Checkpoint> latest_checkpoint_;
  bool checkpoint_dirty_ = false;
  bool awaiting_admission_ = false;
  bool rejoin_submitted_ = false;
  cbc::obs::Counter& recovery_checkpoints_;
  cbc::obs::Counter& recovery_transfers_;
  cbc::obs::Gauge& recovery_restored_;
  cbc::obs::Gauge& recovery_checked_;  // cycles cross-checked
};

/// Recovery bootstrap, run BEFORE the stack exists: fetch a live peer's
/// latest checkpoint on a raw socket bound to our own address, so no
/// message is ever delivered against pre-restore state.
cbc::fault::Checkpoint fetch_checkpoint(const NodeArgs& args,
                                        const cbc::net::ClusterConfig& config) {
  cbc::NodeId peer = args.transfer_from;
  if (peer == cbc::kNoNode) {
    peer = args.id == 0 ? 1 : 0;
  }
  cbc::require(peer != args.id && peer < config.size(),
               "--transfer-from must name another member");
  std::optional<cbc::fault::Checkpoint> recovered =
      cbc::fault::fetch_checkpoint_blocking({.requester = args.id, .have = 0},
                                            config.sockaddr_of(args.id),
                                            config.sockaddr_of(peer));
  cbc::require(recovered.has_value(),
               "state transfer timed out — no checkpoint from member " +
                   std::to_string(peer));
  return std::move(*recovered);
}

}  // namespace

int main(int argc, char** argv) {
  struct sigaction usr1 {};
  usr1.sa_handler = on_sigusr1;
  ::sigaction(SIGUSR1, &usr1, nullptr);
  return rt::run_main("cbc_node", [&] {
    const NodeArgs args = parse_args(argc, argv);
    cbc::net::ClusterConfig config =
        cbc::net::ClusterConfig::load(args.config_path);
    std::optional<cbc::fault::Checkpoint> recovered;
    if (args.recover) {
      recovered = fetch_checkpoint(args, config);
    }
    Node node(args, std::move(config), std::move(recovered));
    return node.run();
  });
}
