#include "activity/stable_point.h"

#include <algorithm>

namespace cbc {

StablePointDetector::StablePointDetector(CommutativitySpec spec,
                                         StablePointFn on_stable)
    : spec_(std::move(spec)), on_stable_(std::move(on_stable)) {}

void StablePointDetector::on_delivery(const Delivery& delivery) {
  if (spec_.is_commutative(delivery.label())) {
    open_set_.push_back(delivery.id);
    at_stable_point_ = false;
    return;
  }
  // Non-commutative: closes the open cycle and forms a stable point. The
  // open set moves into it; the previous point's storage, swapped out,
  // holds the next cycle.
  if (!last_.has_value()) {
    last_.emplace();
  }
  StablePoint& point = *last_;
  point.cycle = ++cycle_;
  point.sync_message = delivery.id;
  point.sync_label = delivery.label();
  point.commutative_set.swap(open_set_);
  open_set_.clear();
  point.at = delivery.delivered_at;
  point.coverage_complete =
      std::all_of(point.commutative_set.begin(), point.commutative_set.end(),
                  [&delivery](const MessageId& open_id) {
                    return delivery.deps().depends_on(open_id);
                  });
  at_stable_point_ = true;
  if (on_stable_) {
    on_stable_(point);
  }
}

void StablePointDetector::restore(MessageId last_sync) {
  open_set_.clear();
  at_stable_point_ = true;
  last_.reset();
  if (!last_sync.is_null()) {
    last_.emplace();
    last_->cycle = cycle_;
    last_->sync_message = last_sync;
  }
}

}  // namespace cbc
