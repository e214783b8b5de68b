#include "causal/osend.h"

#include <deque>
#include <utility>

#include "obs/flight_recorder.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace cbc {

OSendMember::OSendMember(Transport& transport, const GroupView& view,
                         DeliverFn deliver, Options options)
    : transport_(transport),
      view_(view),
      deliver_(std::move(deliver)),
      options_(options),
      endpoint_(
          transport,
          [this](NodeId from, const WireFrame& frame) {
            on_receive(from, frame);
          },
          options.reliability),
      delivered_prefix_(view.size()),
      stable_floor_(view.size()),
      knowledge_(view.size()) {
  require(static_cast<bool>(deliver_), "OSendMember: empty deliver callback");
  require(view_.contains(endpoint_.id()),
          "OSendMember: transport id not in the group view; register "
          "members in ascending view order");
  if (options_.obs.prefix.empty()) {
    options_.obs.prefix = "osend";
  }
  if (options_.obs.any()) {
    hold_hist_ =
        &options_.obs.metrics->histogram(options_.obs.prefix + ".hold_us");
    // Scrape-time migration of OrderingStats onto the registry: the
    // struct stays the storage (stats() keeps working); the collector
    // reads it under the stack lock when scraped.
    collector_ = options_.obs.metrics->register_collector(
        [this](obs::CollectorSink& sink) {
          const LockGuard guard(mutex_);
          const std::string& prefix = options_.obs.prefix;
          sink.counter(prefix + ".broadcasts", stats_.broadcasts);
          sink.counter(prefix + ".received", stats_.received);
          sink.counter(prefix + ".delivered", stats_.delivered);
          sink.counter(prefix + ".held_back", stats_.held_back);
          sink.gauge(prefix + ".max_holdback_depth",
                     static_cast<double>(stats_.max_holdback_depth));
          sink.counter(prefix + ".duplicates", stats_.duplicates);
          sink.counter(prefix + ".malformed", stats_.malformed);
          sink.gauge(prefix + ".holdback_depth",
                     static_cast<double>(pending_.size()));
        });
  }
  if (options_.reliability.enabled && options_.reliability.suspect_after_us > 0) {
    std::vector<NodeId> peers;
    for (const NodeId member : view_.members()) {
      if (member != id()) {
        peers.push_back(member);
      }
    }
    endpoint_.monitor_peers(peers);
  }
}

void OSendMember::set_deliver(DeliverFn deliver) {
  const LockGuard guard(mutex_);
  require(static_cast<bool>(deliver), "OSendMember: empty deliver callback");
  deliver_ = std::move(deliver);
}

MessageId OSendMember::broadcast(std::string label,
                                 std::vector<std::uint8_t> payload,
                                 const DepSpec& deps) {
  const LockGuard guard(mutex_);
  require(!sends_suspended_ || label.rfind("__vc", 0) == 0,
          "OSendMember::broadcast: sends suspended during a view change");
  const MessageId message_id{id(), next_seq_++};
  stats_.broadcasts += 1;
  obs::flight_record(obs::FlightEvent::kSubmit, message_id);

  // Encode ONCE: prelude + envelope section into a single shared frame.
  Writer writer;
  writer.u64(view_.id());  // receivers buffer frames from future views
  delivered_prefix_.encode(writer);
  const std::size_t section_offset = writer.size();
  Envelope::encode_section(writer, message_id, label, deps,
                           transport_.now_us(), payload);
  const SharedBuffer frame = writer.take_shared();
  obs::flight_record(obs::FlightEvent::kEncode, message_id, frame->size());

  for (const NodeId member : view_.members()) {
    if (member != id()) {
      endpoint_.send(member, frame);
    }
  }
  // Local copy bypasses the network: a sender has "seen" its own message
  // the moment it generates it (it still honours any unseen dependency).
  // Parsing our own frame keeps self-delivery on the same zero-copy path.
  try_deliver(Delivery(Envelope::parse(frame, section_offset)));
  return message_id;
}

void OSendMember::on_receive(NodeId from, const WireFrame& frame) {
  const LockGuard guard(mutex_);
  // Wire bytes are untrusted once the transport is a real network: a frame
  // that does not decode is counted and dropped, never allowed to tear
  // down the receive path (the reliability layer has already accepted it,
  // so there is no retransmission to wait for — the sender's copy was
  // corrupt or forged).
  ViewId sender_view = 0;
  VectorClock sender_prefix;
  Delivery delivery;
  try {
    Reader reader(frame.bytes());
    sender_view = reader.u64();
    if (sender_view > view_.id()) {
      // Successor-view traffic racing ahead of our flush: no message may be
      // delivered in different views at different members, so hold it until
      // we install that view ourselves.
      foreign_buffer_.push_back(frame);
      return;
    }
    sender_prefix = VectorClock::decode(reader);
    delivery =
        Delivery(Envelope::parse(frame.buffer, frame.offset + reader.position()));
  } catch (const SerdeError&) {
    stats_.malformed += 1;
    return;
  }
  stats_.received += 1;

  const auto sender_rank = view_.rank_of(from);
  if (!sender_rank.has_value()) {
    // A joiner may start broadcasting in the successor view before this
    // member has installed it; buffer and replay at install_view().
    foreign_buffer_.push_back(frame);
    return;
  }
  if (sender_prefix.width() == view_.size()) {
    knowledge_.observe_row(static_cast<NodeId>(*sender_rank), sender_prefix);
  }
  try_deliver(std::move(delivery));
}

void OSendMember::install_view(const GroupView& new_view) {
  const LockGuard guard(mutex_);
  require(new_view.contains(id()), "install_view: self not in the new view");
  require(new_view.id() > view_.id(), "install_view: view id must advance");

  const GroupView old_view = view_;
  auto remap = [&](const VectorClock& old_clock) {
    VectorClock fresh(new_view.size());
    for (std::size_t new_rank = 0; new_rank < new_view.size(); ++new_rank) {
      const NodeId member = new_view.member_at(new_rank);
      const auto old_rank = old_view.rank_of(member);
      if (old_rank.has_value()) {
        fresh.set(static_cast<NodeId>(new_rank),
                  old_clock.at(static_cast<NodeId>(*old_rank)));
      }
    }
    return fresh;
  };

  const VectorClock new_prefix = remap(delivered_prefix_);
  const VectorClock new_floor = remap(stable_floor_);
  MatrixClock new_knowledge(new_view.size());
  for (std::size_t new_rank = 0; new_rank < new_view.size(); ++new_rank) {
    const NodeId member = new_view.member_at(new_rank);
    const auto old_rank = old_view.rank_of(member);
    if (old_rank.has_value()) {
      new_knowledge.observe_row(
          static_cast<NodeId>(new_rank),
          remap(knowledge_.row(static_cast<NodeId>(*old_rank))));
    }
  }
  view_ = new_view;
  delivered_prefix_ = new_prefix;
  stable_floor_ = new_floor;
  knowledge_ = std::move(new_knowledge);

  // Replay traffic buffered for this (or a future) view.
  std::vector<WireFrame> buffered = std::move(foreign_buffer_);
  foreign_buffer_.clear();
  for (const WireFrame& frame : buffered) {
    // Re-enter through the normal receive path (sender is parsed from the
    // frame; frames from still-future views re-buffer harmlessly). Frames
    // were buffered after only a view-id peek, so the rest of the prelude
    // is still untrusted here.
    try {
      Reader reader(frame.bytes());
      (void)reader.u64();  // view id
      (void)VectorClock::decode(reader);
      const MessageId parsed = MessageId::decode(reader);
      on_receive(parsed.sender, frame);
    } catch (const SerdeError&) {
      stats_.malformed += 1;
    }
  }
}

void OSendMember::adopt_baseline(const VectorClock& baseline) {
  const LockGuard guard(mutex_);
  require(baseline.width() == view_.size(),
          "adopt_baseline: width mismatch with current view");
  std::vector<MessageId> newly_satisfied;
  for (std::size_t rank = 0; rank < view_.size(); ++rank) {
    const NodeId node = static_cast<NodeId>(rank);
    const std::uint64_t target = baseline.at(node);
    if (target <= stable_floor_.at(node)) {
      continue;
    }
    stable_floor_.set(node, target);
    // Re-establish prefix contiguity over anything delivered above it.
    PrefixSeqSet& delivered = delivered_by_sender_[view_.member_at(rank)];
    delivered.raise_floor(target);
    delivered_prefix_.set(node, delivered.floor());
    // Dependencies on messages at or below the baseline are now satisfied.
    for (const auto& [dep, waiting] : waiters_) {
      const auto dep_rank = view_.rank_of(dep.sender);
      if (dep_rank.has_value() && *dep_rank == rank && dep.seq <= target) {
        newly_satisfied.push_back(dep);
      }
    }
  }
  const auto self_rank = view_.rank_of(id());
  ensure(self_rank.has_value(), "adopt_baseline: self not in view");
  knowledge_.observe_row(static_cast<NodeId>(*self_rank), delivered_prefix_);

  // A recovering member adopting a baseline that covers its own pre-crash
  // broadcasts must resume numbering above them — both at the OSend layer
  // and on the reliable per-link seq (the lockstep invariant: one reliable
  // data frame per broadcast per link), or peers would discard its first
  // new messages as duplicates.
  const std::uint64_t own_floor =
      baseline.at(static_cast<NodeId>(*self_rank));
  if (next_seq_ <= own_floor) {
    next_seq_ = own_floor + 1;
    endpoint_.fast_forward_send_seq(next_seq_);
  }

  // Release any held-back messages whose remaining deps were pre-baseline.
  std::deque<Delivery> ready;
  for (const MessageId& dep : newly_satisfied) {
    const auto waiting = waiters_.find(dep);
    if (waiting == waiters_.end()) {
      continue;
    }
    for (const MessageId& waiter_id : waiting->second) {
      const auto it = pending_.find(waiter_id);
      if (it == pending_.end()) {
        continue;
      }
      ensure(it->second.missing > 0, "adopt_baseline: waiter with no deps");
      if (--it->second.missing == 0) {
        ready.push_back(std::move(it->second.delivery));
        pending_.erase(it);
      }
    }
    waiters_.erase(waiting);
  }
  while (!ready.empty()) {
    Delivery current = std::move(ready.front());
    ready.pop_front();
    try_deliver(std::move(current));
  }
}

void OSendMember::try_deliver(Delivery delivery) {
  if (delivered_locally(delivery.id) || pending_.count(delivery.id) != 0) {
    // The prefix check matters after crash recovery too: peers retransmit
    // messages the adopted baseline already covers; re-delivering one
    // would double-apply it to the replica.
    stats_.duplicates += 1;
    return;
  }
  std::size_t missing = 0;
  for (const MessageId& dep : delivery.deps().ids()) {
    if (!delivered_locally(dep)) {
      ++missing;
      waiters_[dep].push_back(delivery.id);
    }
  }
  if (missing > 0) {
    const MessageId pending_id = delivery.id;
    const std::int64_t held_since_us =
        options_.obs.any() || obs::flight_recorder() != nullptr
            ? obs::wall_now_us()
            : 0;
    obs::flight_record(obs::FlightEvent::kHoldEnter, pending_id, missing);
    pending_.emplace(pending_id, PendingMessage{std::move(delivery), missing,
                                                held_since_us});
    stats_.held_back += 1;
    stats_.max_holdback_depth =
        std::max<std::uint64_t>(stats_.max_holdback_depth, pending_.size());
    return;
  }

  // Deliver, then cascade through pending messages this unblocks. Each
  // entry carries the wall-clock stamp of when it entered the hold-back
  // queue (0 = delivered on arrival) for the hold-time metric.
  std::deque<std::pair<Delivery, std::int64_t>> ready;
  ready.emplace_back(std::move(delivery), 0);
  while (!ready.empty()) {
    auto [current, held_since_us] = std::move(ready.front());
    ready.pop_front();
    const MessageId current_id = current.id;
    deliver_now(std::move(current), held_since_us);
    const auto waiting = waiters_.find(current_id);
    if (waiting == waiters_.end()) {
      continue;
    }
    for (const MessageId& waiter_id : waiting->second) {
      const auto it = pending_.find(waiter_id);
      if (it == pending_.end()) {
        continue;
      }
      ensure(it->second.missing > 0, "OSend: waiter with no missing deps");
      if (--it->second.missing == 0) {
        ready.emplace_back(std::move(it->second.delivery),
                           it->second.held_since_us);
        pending_.erase(it);
      }
    }
    waiters_.erase(waiting);
  }
}

void OSendMember::deliver_now(Delivery delivery,
                              std::int64_t held_since_us) {
  const auto rank = view_.rank_of(delivery.sender);
  protocol_ensure(rank.has_value(), "OSend: delivery from outside the view");

  // Advance the contiguous delivered prefix for this sender.
  PrefixSeqSet& delivered = delivered_by_sender_[delivery.sender];
  delivered.insert(delivery.id.seq);
  delivered_prefix_.set(static_cast<NodeId>(*rank), delivered.floor());
  const auto self_rank = view_.rank_of(id());
  ensure(self_rank.has_value(), "OSend: self not in view");
  knowledge_.observe_row(static_cast<NodeId>(*self_rank), delivered_prefix_);

  delivery.delivered_at = transport_.now_us();
  if (options_.obs.any() || obs::flight_recorder() != nullptr) {
    const std::int64_t hold_us =
        held_since_us > 0 ? obs::wall_now_us() - held_since_us : 0;
    const auto held =
        static_cast<std::uint64_t>(std::max<std::int64_t>(hold_us, 0));
    if (hold_hist_ != nullptr) {
      hold_hist_->record(static_cast<double>(held));
    }
    if (held_since_us > 0) {
      obs::flight_record(obs::FlightEvent::kHoldExit, delivery.id, held);
    }
    obs::flight_record(obs::FlightEvent::kDeliver, delivery.id, held);
  }
  stats_.delivered += 1;
  deliver_(delivery);
}

bool OSendMember::delivered_locally(MessageId message) const {
  const auto it = delivered_by_sender_.find(message.sender);
  return it != delivered_by_sender_.end() && it->second.contains(message.seq);
}

bool OSendMember::has_delivered(MessageId message) const {
  const LockGuard guard(mutex_);
  return delivered_locally(message);
}

std::size_t OSendMember::prune_stable() {
  const LockGuard guard(mutex_);
  const VectorClock cut = knowledge_.stable_cut();
  std::size_t pruned = 0;
  for (std::size_t rank = 0; rank < view_.size(); ++rank) {
    const NodeId node = static_cast<NodeId>(rank);
    const std::uint64_t floor = stable_floor_.at(node);
    const std::uint64_t target = cut.at(node);
    if (target <= floor) {
      continue;
    }
    // Stability implies local delivery (the cut includes our own row).
    ensure(target <= delivered_prefix_.at(node),
           "prune_stable: stable message not delivered locally");
    pruned += target - floor;
    stable_floor_.set(node, target);
  }
  return pruned;
}

bool OSendMember::is_stable(MessageId message) const {
  const auto rank = view_.rank_of(message.sender);
  if (!rank.has_value()) {
    return false;
  }
  return knowledge_.is_stable(static_cast<NodeId>(*rank), message.seq);
}

}  // namespace cbc
