// Replicated tagged FIFO queue — second object written directly against
// the object layer.
//
// enq(tag, value) inserts under a producer-unique tag; deq pops the
// lowest tag. The uniqueness of tags is the queue's domain guarantee
// (producers draw from disjoint ranges — the cluster workload packs
// node/round/op into the tag), and the probe set declares exactly that:
// every probed enqueue uses a distinct tag, which is why enq lands in the
// derived C-class. deq observes and removes the head, len observes the
// size — both conflict with enq and stay sync; len is state-inert and
// closes cluster rounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "activity/commutativity.h"
#include "object/sequential_spec.h"
#include "util/serde.h"

namespace cbc::apps {

/// State machine of a tag-ordered queue under enq/deq/len.
class FifoQueue {
 public:
  /// Applies one operation; deq responds with (found, tag, value), len
  /// with the current size. Unknown kinds throw InvalidArgument.
  std::vector<std::uint8_t> apply(std::string_view kind, Reader& args);

  [[nodiscard]] std::size_t size() const { return elements_.size(); }
  [[nodiscard]] std::uint64_t dequeued() const { return dequeued_; }

  bool operator==(const FifoQueue& other) const {
    return elements_ == other.elements_ && dequeued_ == other.dequeued_;
  }

  [[nodiscard]] std::string to_string() const;

  /// Snapshot serialization (checkpointing / recovery state transfer).
  void encode(Writer& writer) const;
  static FifoQueue decode(Reader& reader);

  /// Behavioural spec: factory, representative ops, probe base states.
  [[nodiscard]] static object::SequentialSpec seq_spec();

  /// Derived table: enq/nop commutative; deq/len sync.
  [[nodiscard]] static CommutativitySpec spec();

  using Op = object::Op;
  static Op enq(std::uint64_t tag, std::int64_t value);
  static Op deq();
  /// State-inert size read (the cluster's round-closing sync op).
  static Op len();
  /// Commutative inert marker (see Counter::nop).
  static Op nop(std::uint64_t tag = 0);

 private:
  std::map<std::uint64_t, std::int64_t> elements_;  // tag -> value
  std::uint64_t dequeued_ = 0;
};

}  // namespace cbc::apps
