#include "check/invariant_checker.h"

#include <algorithm>
#include <cstddef>
#include <iterator>

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

/// Hash of one message id, for the set hash and the order digest.
std::uint64_t hash_id(MessageId message) {
  return mix(message.sender, message.seq);
}

}  // namespace

InvariantChecker::InvariantChecker(std::unique_ptr<BroadcastMember> lower,
                                   std::shared_ptr<ViolationLog> log,
                                   Options options)
    : ProtocolLayer(std::move(lower)),
      log_(std::move(log)),
      options_(std::move(options)) {
  require(log_ != nullptr, "InvariantChecker: null violation log");
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
    collector_ = options_.obs.metrics->register_collector(
        [this](obs::CollectorSink& sink) {
          const LockGuard guard(stack_mutex());
          sink.gauge(options_.obs.prefix + ".retained",
                     static_cast<double>(tail_.size()));
        });
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
  if (seen(message)) {
    record(ViolationKind::kDuplicateDelivery, message,
           "delivered again at position " + std::to_string(delivered_count()));
    deliver_up(delivery);
    return;
  }
  for (const MessageId& dep : delivery.deps().ids()) {
    if (!seen(dep)) {
      record(ViolationKind::kDependencyViolation, message,
             "Occurs_After(" + dep.to_string() +
                 ") not yet delivered locally at position " +
                 std::to_string(delivered_count()));
    }
  }
  tail_.push_back(message);
  const std::uint64_t id_hash = hash_id(message);
  set_hash_ += id_hash;  // a sum, so a repeated id still counts
  order_digest_ = mix(order_digest_, id_hash);
  seen_[message.sender].insert(message.seq);
  if (options_.stable_spec.has_value()) {
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
        close_cycle(delivery);
      }
    }
  }
  deliver_up(delivery);
}

void InvariantChecker::close_cycle(const Delivery& sync) {
  stable_cycles_ += 1;
  // The chain digest now stands in for the closed cycle's deliveries.
  dropped_ += tail_.size();
  tail_.clear();
  if (stable_digests_.size() == DigestWindow::kCapacity) {
    stable_digests_.erase(stable_digests_.begin());
  }
  stable_digests_.push_back(digest_chain_);
  obs::flight_record(obs::FlightEvent::kStablePoint, sync.id, stable_cycles_);
  if (stable_points_counter_ != nullptr) {
    stable_points_counter_->inc();
  }
}

bool InvariantChecker::seen(MessageId message) const {
  const auto it = seen_.find(message.sender);
  return it != seen_.end() && it->second.contains(message.seq);
}

void InvariantChecker::restore(std::uint64_t cycles,
                               std::vector<std::uint64_t> digests,
                               std::map<NodeId, SeqNo> baseline_floor) {
  require(delivered_count() == 0,
          "InvariantChecker::restore: deliveries already recorded");
  require(digests.size() <= cycles,
          "InvariantChecker::restore: more digests than cycles");
  if (digests.size() > DigestWindow::kCapacity) {
    digests.erase(digests.begin(), digests.end() - DigestWindow::kCapacity);
  }
  stable_digests_ = std::move(digests);
  stable_cycles_ = cycles;
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
  if (checkers_.size() >= 2) {
    check_sets();
    check_orders();
    check_stable_points();
  }
  return log_->empty();
}

void InvariantMonitor::check_sets() {
  // Identical delivered message set everywhere.
  const InvariantChecker& reference = *checkers_[0];
  const auto sorted_ids = [](const InvariantChecker& checker) {
    std::vector<MessageId> ids = checker.delivered_sequence();
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (std::size_t i = 1; i < checkers_.size(); ++i) {
    const InvariantChecker& checker = *checkers_[i];
    if (checker.delivered_count() == reference.delivered_count() &&
        checker.delivered_set_hash() == reference.delivered_set_hash()) {
      continue;
    }
    MessageId first = MessageId::null();
    std::string extent;
    if (reference.record_complete() && checker.record_complete()) {
      const std::vector<MessageId> expected = sorted_ids(reference);
      const std::vector<MessageId> actual = sorted_ids(checker);
      std::vector<MessageId> diff;
      std::set_symmetric_difference(expected.begin(), expected.end(),
                                    actual.begin(), actual.end(),
                                    std::back_inserter(diff));
      first = diff.empty() ? MessageId::null() : diff.front();
      extent = std::to_string(diff.size()) + " ids differ";
    } else {
      extent = "set hashes differ over " +
               std::to_string(checker.delivered_count()) + " vs " +
               std::to_string(reference.delivered_count()) + " deliveries";
    }
    log_->add(ViolationKind::kSetDivergence, checker.id(), first,
              "delivered set differs from member " +
                  std::to_string(reference.id()) + " (" + extent + ")");
  }
}

void InvariantMonitor::check_orders() {
  // Identical sequence wherever total order was promised (ASend eq. 5).
  const InvariantChecker* reference = nullptr;
  for (const InvariantChecker* checker : checkers_) {
    if (!checker->options().expect_total_order) {
      continue;
    }
    if (reference == nullptr) {
      reference = checker;
      continue;
    }
    if (checker->delivered_count() == reference->delivered_count() &&
        checker->delivery_order_digest() ==
            reference->delivery_order_digest()) {
      continue;
    }
    if (!reference->record_complete() || !checker->record_complete()) {
      log_->add(ViolationKind::kOrderDivergence, checker->id(),
                MessageId::null(),
                "arbitration order diverges from member " +
                    std::to_string(reference->id()) +
                    " (order digests differ over " +
                    std::to_string(checker->delivered_count()) + " vs " +
                    std::to_string(reference->delivered_count()) +
                    " deliveries)");
      continue;
    }
    const auto& expected = reference->delivered_sequence();
    const auto& actual = checker->delivered_sequence();
    const std::size_t common = std::min(expected.size(), actual.size());
    std::size_t at = 0;
    while (at < common && expected[at] == actual[at]) {
      ++at;
    }
    log_->add(ViolationKind::kOrderDivergence, checker->id(),
              at < common ? actual[at] : MessageId::null(),
              "arbitration order diverges from member " +
                  std::to_string(reference->id()) + " at position " +
                  std::to_string(at));
  }
}

void InvariantMonitor::check_stable_points() {
  // Stable-point agreement wherever a commutativity spec was given: the
  // same cycle count, and equal digests over the cycles both members
  // keep. Each digest chains all earlier ones, so a divergence anywhere
  // before the window still shows inside it.
  const InvariantChecker* reference = nullptr;
  for (const InvariantChecker* checker : checkers_) {
    if (!checker->options().stable_spec.has_value()) {
      continue;
    }
    if (reference == nullptr) {
      reference = checker;
      continue;
    }
    const std::uint64_t cycles = checker->stable_cycles();
    if (cycles != reference->stable_cycles()) {
      log_->add(ViolationKind::kStableDivergence, checker->id(),
                MessageId::null(),
                "saw " + std::to_string(cycles) +
                    " stable points vs member " +
                    std::to_string(reference->id()) + "'s " +
                    std::to_string(reference->stable_cycles()));
      continue;
    }
    const DigestWindow expected = reference->stable_window();
    const DigestWindow actual = checker->stable_window();
    for (std::uint64_t cycle = std::max(expected.first(), actual.first());
         cycle <= cycles; ++cycle) {
      if (actual.at(cycle) != expected.at(cycle)) {
        log_->add(ViolationKind::kStableDivergence, checker->id(),
                  MessageId::null(),
                  "state digest at stable point " + std::to_string(cycle) +
                      " differs from member " +
                      std::to_string(reference->id()) +
                      " — states disagree at an activity endpoint");
      }
    }
  }
}

}  // namespace cbc::check
