#include "check/invariant_checker.h"

#include <algorithm>
#include <cstddef>

#include "obs/flight_recorder.h"

namespace cbc::check {

namespace {

/// FNV-1a over a byte span, folded into a running hash.
std::uint64_t fnv1a(std::uint64_t hash, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// Content hash of one delivery: id, label, payload.
std::uint64_t hash_delivery(const Delivery& delivery) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const std::uint64_t id_bits =
      (static_cast<std::uint64_t>(delivery.id.sender) << 48) ^ delivery.id.seq;
  hash = fnv1a(hash, std::span(
                         reinterpret_cast<const std::uint8_t*>(&id_bits),
                         sizeof(id_bits)));
  hash = fnv1a(hash, std::span(
                         reinterpret_cast<const std::uint8_t*>(
                             delivery.label().data()),
                         delivery.label().size()));
  return fnv1a(hash, delivery.payload());
}

/// Order-sensitive combine (splitmix finalizer) for chaining sync points.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

InvariantChecker::InvariantChecker(std::unique_ptr<BroadcastMember> lower,
                                   std::shared_ptr<ViolationLog> log,
                                   Options options)
    : ProtocolLayer(std::move(lower)),
      log_(std::move(log)),
      options_(std::move(options)) {
  require(log_ != nullptr, "InvariantChecker: null violation log");
  if (options_.stable_spec.has_value()) {
    detector_.emplace(*options_.stable_spec, nullptr);
  }
  if (options_.obs.prefix.empty()) {
    options_.obs.prefix = "check";
  }
  if (options_.obs.any()) {
    const std::string& prefix = options_.obs.prefix;
    deliveries_counter_ = &options_.obs.metrics->counter(prefix +
                                                         ".deliveries");
    violations_counter_ = &options_.obs.metrics->counter(prefix +
                                                         ".violations");
    stable_points_counter_ =
        &options_.obs.metrics->counter(prefix + ".stable_points");
  }
}

void InvariantChecker::record(ViolationKind kind, MessageId message,
                              std::string detail) {
  local_violations_ += 1;
  if (violations_counter_ != nullptr) {
    violations_counter_->inc();
  }
  // A violation is precisely what the flight recorder exists for: mark
  // it in the journal, then persist the ring before anything above us
  // reacts (aborts, tears down the process, ...).
  obs::flight_record(obs::FlightEvent::kMark, message,
                     static_cast<std::uint64_t>(kind));
  if (obs::FlightRecorder* recorder = obs::flight_recorder()) {
    recorder->dump();
  }
  log_->add(kind, id(), message, std::move(detail));
}

void InvariantChecker::on_lower_delivery(const Delivery& delivery) {
  const MessageId message = delivery.id;
  if (deliveries_counter_ != nullptr) {
    deliveries_counter_->inc();
  }
  if (options_.check_duplicates && seen(message)) {
    record(ViolationKind::kDuplicateDelivery, message,
           "delivered again at position " + std::to_string(sequence_.size()));
    deliver_up(delivery);
    return;
  }
  if (options_.check_dependencies) {
    for (const MessageId& dep : delivery.deps().ids()) {
      if (!seen(dep)) {
        record(ViolationKind::kDependencyViolation, message,
               "Occurs_After(" + dep.to_string() +
                   ") not yet delivered locally at position " +
                   std::to_string(sequence_.size()));
      }
    }
  }
  sequence_.push_back(message);
  seen_[message.sender].insert(message.seq);
  if (detector_.has_value()) {
    if (options_.digest_exempt_kinds.count(
            CommutativitySpec::kind_of(delivery.label())) == 0) {
      const std::uint64_t hash = hash_delivery(delivery);
      if (options_.stable_spec->is_commutative(delivery.label())) {
        // Commutative ops may arrive in any relative order at different
        // members; XOR keeps the cycle digest order-insensitive.
        open_cycle_acc_ ^= hash;
      } else {
        digest_chain_ = mix(digest_chain_ ^ open_cycle_acc_, hash);
        open_cycle_acc_ = 0;
        stable_digests_.push_back(digest_chain_);
        obs::flight_record(obs::FlightEvent::kStablePoint, message,
                           stable_digests_.size());
        if (stable_points_counter_ != nullptr) {
          stable_points_counter_->inc();
        }
      }
    }
    detector_->on_delivery(delivery);
  }
  deliver_up(delivery);
}

bool InvariantChecker::seen(MessageId message) const {
  const auto it = seen_.find(message.sender);
  return it != seen_.end() && it->second.contains(message.seq);
}

const std::vector<MessageId>& InvariantChecker::delivered_sequence() const {
  // The record only grows, so the view lags it by a suffix at most.
  sequence_view_.insert(
      sequence_view_.end(),
      sequence_.begin() + static_cast<std::ptrdiff_t>(sequence_view_.size()),
      sequence_.end());
  return sequence_view_;
}

const std::vector<StablePoint>& InvariantChecker::stable_history() const {
  static const std::vector<StablePoint> kNone;
  return detector_.has_value() ? detector_->history() : kNone;
}

void InvariantChecker::restore(std::vector<std::uint64_t> digests,
                               std::map<NodeId, SeqNo> baseline_floor) {
  require(sequence_.empty(),
          "InvariantChecker::restore: deliveries already recorded");
  stable_digests_ = std::move(digests);
  digest_chain_ = stable_digests_.empty() ? 0 : stable_digests_.back();
  open_cycle_acc_ = 0;
  for (const auto& [sender, floor] : baseline_floor) {
    seen_[sender].raise_floor(floor);
  }
}

void InvariantChecker::check_no_gaps() {
  // Anything above a sender's contiguous floor sits past a hole.
  for (const auto& [sender, seqs] : seen_) {
    if (seqs.above().empty()) {
      continue;
    }
    const SeqNo missing = seqs.floor() + 1;
    record(ViolationKind::kSenderGap, MessageId{sender, missing},
           "sender " + std::to_string(sender) + " delivered up to seq " +
               std::to_string(*seqs.above().rbegin()) + " but seq " +
               std::to_string(missing) + " is missing");
  }
}

InvariantMonitor::InvariantMonitor(InvariantChecker::Options default_options)
    : log_(std::make_shared<ViolationLog>()),
      default_options_(std::move(default_options)) {}

std::unique_ptr<InvariantChecker> InvariantMonitor::attach(
    std::unique_ptr<BroadcastMember> lower) {
  return attach(std::move(lower), default_options_);
}

std::unique_ptr<InvariantChecker> InvariantMonitor::attach(
    std::unique_ptr<BroadcastMember> lower,
    InvariantChecker::Options options) {
  auto checker = std::make_unique<InvariantChecker>(std::move(lower), log_,
                                                    std::move(options));
  checkers_.push_back(checker.get());
  return checker;
}

bool InvariantMonitor::check_quiescent() {
  for (InvariantChecker* checker : checkers_) {
    checker->check_no_gaps();
  }
  if (checkers_.size() < 2) {
    return log_->empty();
  }

  // Identical delivered message set everywhere.
  const auto sorted_ids = [](const InvariantChecker& checker) {
    std::vector<MessageId> ids = checker.delivered_sequence();
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const std::vector<MessageId> reference = sorted_ids(*checkers_[0]);
  for (std::size_t i = 1; i < checkers_.size(); ++i) {
    const std::vector<MessageId> ids = sorted_ids(*checkers_[i]);
    if (ids == reference) {
      continue;
    }
    std::vector<MessageId> diff;
    std::set_symmetric_difference(reference.begin(), reference.end(),
                                  ids.begin(), ids.end(),
                                  std::back_inserter(diff));
    log_->add(ViolationKind::kSetDivergence, checkers_[i]->id(),
              diff.empty() ? MessageId::null() : diff.front(),
              "delivered set differs from member " +
                  std::to_string(checkers_[0]->id()) + " (" +
                  std::to_string(diff.size()) + " ids differ)");
  }

  // Identical sequence wherever total order was promised (ASend eq. 5).
  const InvariantChecker* total_reference = nullptr;
  for (const InvariantChecker* checker : checkers_) {
    if (!checker->options().expect_total_order) {
      continue;
    }
    if (total_reference == nullptr) {
      total_reference = checker;
      continue;
    }
    const auto& expected = total_reference->delivered_sequence();
    const auto& actual = checker->delivered_sequence();
    const std::size_t common = std::min(expected.size(), actual.size());
    std::size_t at = 0;
    while (at < common && expected[at] == actual[at]) {
      ++at;
    }
    if (at == expected.size() && at == actual.size()) {
      continue;
    }
    log_->add(ViolationKind::kOrderDivergence, checker->id(),
              at < common ? actual[at] : MessageId::null(),
              "arbitration order diverges from member " +
                  std::to_string(total_reference->id()) + " at position " +
                  std::to_string(at));
  }

  // Stable-point agreement wherever a commutativity spec was given.
  const InvariantChecker* stable_reference = nullptr;
  for (const InvariantChecker* checker : checkers_) {
    if (!checker->options().stable_spec.has_value()) {
      continue;
    }
    if (stable_reference == nullptr) {
      stable_reference = checker;
      continue;
    }
    const auto& expected = stable_reference->stable_history();
    const auto& actual = checker->stable_history();
    if (expected.size() != actual.size()) {
      log_->add(ViolationKind::kStableDivergence, checker->id(),
                MessageId::null(),
                "saw " + std::to_string(actual.size()) +
                    " stable points vs member " +
                    std::to_string(stable_reference->id()) + "'s " +
                    std::to_string(expected.size()));
      continue;
    }
    for (std::size_t c = 0; c < expected.size(); ++c) {
      if (actual[c].sync_message != expected[c].sync_message) {
        log_->add(ViolationKind::kStableDivergence, checker->id(),
                  actual[c].sync_message,
                  "cycle " + std::to_string(c + 1) +
                      " closed on a different sync message than member " +
                      std::to_string(stable_reference->id()));
        continue;
      }
      if (checker->stable_digests()[c] !=
          stable_reference->stable_digests()[c]) {
        log_->add(ViolationKind::kStableDivergence, checker->id(),
                  actual[c].sync_message,
                  "state digest at stable point " + std::to_string(c + 1) +
                      " differs from member " +
                      std::to_string(stable_reference->id()) +
                      " — states disagree at an activity endpoint");
      }
    }
  }
  return log_->empty();
}

}  // namespace cbc::check
