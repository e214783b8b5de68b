#include "total/asend.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace cbc {

ASendMember::ASendMember(Transport& transport, const GroupView& view,
                         DeliverFn deliver, Options options)
    : transport_(transport),
      view_(view),
      deliver_(std::move(deliver)),
      options_(std::move(options)),
      endpoint_(
          transport,
          [this](NodeId from, const WireFrame& frame) {
            on_receive(from, frame);
          },
          options_.reliability) {
  require(static_cast<bool>(deliver_), "ASendMember: empty deliver callback");
  require(view_.contains(endpoint_.id()),
          "ASendMember: transport id not in the group view");
  if (options_.obs.prefix.empty()) {
    options_.obs.prefix = "asend";
  }
  if (options_.obs.any()) {
    // Scrape-time migration of OrderingStats onto the registry (see
    // OSendMember); round progress rides along as gauges.
    collector_ = options_.obs.metrics->register_collector(
        [this](obs::CollectorSink& sink) {
          const LockGuard guard(mutex_);
          const std::string& prefix = options_.obs.prefix;
          sink.counter(prefix + ".broadcasts", stats_.broadcasts);
          sink.counter(prefix + ".received", stats_.received);
          sink.counter(prefix + ".delivered", stats_.delivered);
          sink.gauge(prefix + ".max_holdback_depth",
                     static_cast<double>(stats_.max_holdback_depth));
          sink.counter(prefix + ".duplicates", stats_.duplicates);
          sink.counter(prefix + ".malformed", stats_.malformed);
          sink.gauge(prefix + ".round", static_cast<double>(deliver_round_));
          sink.gauge(prefix + ".buffered_frames",
                     static_cast<double>(buffered_frames_locked()));
        });
  }
}

void ASendMember::set_deliver(DeliverFn deliver) {
  const LockGuard guard(mutex_);
  require(static_cast<bool>(deliver), "ASendMember: empty deliver callback");
  deliver_ = std::move(deliver);
}

MessageId ASendMember::broadcast(std::string label,
                                 std::vector<std::uint8_t> payload,
                                 const DepSpec& /*deps*/) {
  const LockGuard guard(mutex_);
  const MessageId message_id{id(), next_seq_++};
  stats_.broadcasts += 1;
  obs::flight_record(obs::FlightEvent::kSubmit, message_id);
  submit_queue_.push_back(
      PendingSubmit{message_id, std::move(label), std::move(payload)});
  // Each submission occupies this member's slot in the next round it has
  // not yet contributed to.
  contribute(next_contribution_round_);
  try_close_rounds();
  return message_id;
}

void ASendMember::contribute(std::uint64_t round) {
  ensure(round == next_contribution_round_,
         "ASend: contributions must be in round order");
  std::optional<PendingSubmit> submit;
  if (!submit_queue_.empty()) {
    submit = std::move(submit_queue_.front());
    submit_queue_.pop_front();
  }
  ++next_contribution_round_;
  const auto self_rank = view_.rank_of(id());
  ensure(self_rank.has_value(), "ASend: self not in view");
  Frame frame = send_frame(round, std::move(submit));
  rounds_[round].emplace(*self_rank, std::move(frame));
}

void ASendMember::catch_up_contributions(std::uint64_t round) {
  // Fill every round up to and including `round` that we have not yet
  // contributed to (with queued messages first, then SKIPs).
  while (next_contribution_round_ <= round) {
    contribute(next_contribution_round_);
  }
}

ASendMember::Frame ASendMember::send_frame(std::uint64_t round,
                                           std::optional<PendingSubmit> submit) {
  Writer writer;
  writer.u64(round);
  writer.boolean(!submit.has_value());  // skip flag
  std::size_t section_offset = 0;
  if (submit.has_value()) {
    section_offset = writer.size();
    Envelope::encode_section(writer, submit->id, submit->label,
                             DepSpec::none(), transport_.now_us(),
                             submit->payload);
  }
  const SharedBuffer wire = writer.take_shared();
  if (submit.has_value()) {
    obs::flight_record(obs::FlightEvent::kEncode, submit->id, wire->size());
  }
  for (const NodeId member : view_.members()) {
    if (member != id()) {
      endpoint_.send(member, wire);
    }
  }
  Frame frame;
  frame.skip = !submit.has_value();
  if (!frame.skip) {
    // Our own slot shares the encoded frame — same zero-copy path as
    // frames arriving from peers.
    frame.envelope = Envelope::parse(wire, section_offset);
  }
  return frame;
}

void ASendMember::on_receive(NodeId from, const WireFrame& wire) {
  const LockGuard guard(mutex_);
  // Untrusted wire bytes: an undecodable frame is counted and dropped so
  // a corrupt datagram cannot tear down the receive path.
  std::uint64_t round = 0;
  Frame frame;
  try {
    Reader reader(wire.bytes());
    round = reader.u64();
    frame.skip = reader.boolean();
    if (!frame.skip) {
      frame.envelope =
          Envelope::parse(wire.buffer, wire.offset + reader.position());
    }
  } catch (const SerdeError&) {
    stats_.malformed += 1;
    return;
  }
  stats_.received += 1;

  const auto sender_rank = view_.rank_of(from);
  protocol_ensure(sender_rank.has_value(),
                  "ASend: frame from outside the view");
  auto& slots = rounds_[round];
  if (slots.count(*sender_rank) != 0) {
    stats_.duplicates += 1;
    return;
  }
  slots.emplace(*sender_rank, std::move(frame));

  // Learning that round `round` is underway obliges us to contribute our
  // slot for it (and for any earlier round we skipped hearing about).
  catch_up_contributions(round);
  try_close_rounds();
}

void ASendMember::try_close_rounds() {
  for (;;) {
    const auto it = rounds_.find(deliver_round_);
    if (it == rounds_.end() || it->second.size() < view_.size()) {
      std::size_t buffered = buffered_frames_locked();
      stats_.max_holdback_depth =
          std::max<std::uint64_t>(stats_.max_holdback_depth, buffered);
      return;
    }
    // Round complete: deliver its real messages in the deterministic merge
    // order (label, sender, seq) — identical at every member.
    std::vector<Envelope> real;
    for (auto& [rank, frame] : it->second) {
      if (!frame.skip) {
        real.push_back(std::move(frame.envelope));
      }
    }
    rounds_.erase(it);
    std::sort(real.begin(), real.end(),
              [](const Envelope& a, const Envelope& b) {
                if (a.label() != b.label()) {
                  return a.label() < b.label();
                }
                return a.id() < b.id();
              });
    for (Envelope& envelope : real) {
      Delivery delivery(std::move(envelope));
      delivery.delivered_at = transport_.now_us();
      // ASend subsumes explicit dependencies in the round structure, so
      // deliver spans carry no Occurs_After edges; round closing is the
      // hold, but per-message hold is not tracked here (arg 0).
      obs::flight_record(obs::FlightEvent::kDeliver, delivery.id);
      if (!options_.keep_delivery_log) {
        log_.clear();
      }
      log_.push_back(std::move(delivery));
      stats_.delivered += 1;
      deliver_(log_.back());
    }
    ++deliver_round_;
  }
}

std::size_t ASendMember::buffered_frames_locked() const {
  std::size_t total = 0;
  for (const auto& [round, slots] : rounds_) {
    total += slots.size();
  }
  return total;
}

}  // namespace cbc
