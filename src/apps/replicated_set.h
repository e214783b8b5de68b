// Replicated grow-mostly set — first object written directly against the
// object layer (no pre-object history).
//
// add(e) inserts an element; set semantics make concurrent adds commute
// (even of the same element — insertion is idempotent). rem(e) conflicts
// with add(e), so removals are sync ops; has/snap are reads. The derived
// C-class is {add, nop}: the cluster workload streams adds and closes
// rounds with the state-inert snap digest read.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "activity/commutativity.h"
#include "object/sequential_spec.h"
#include "util/serde.h"

namespace cbc::apps {

/// State machine of a string set under add/rem/has/snap.
class ReplicatedSet {
 public:
  /// Applies one operation; has responds with membership, snap with the
  /// element count plus the sorted elements. Unknown kinds throw
  /// InvalidArgument.
  std::vector<std::uint8_t> apply(std::string_view kind, Reader& args);

  [[nodiscard]] bool contains(const std::string& element) const {
    return elements_.count(element) != 0;
  }
  [[nodiscard]] std::size_t size() const { return elements_.size(); }

  bool operator==(const ReplicatedSet& other) const {
    return elements_ == other.elements_;
  }

  [[nodiscard]] std::string to_string() const;

  /// Snapshot serialization (checkpointing / recovery state transfer).
  void encode(Writer& writer) const;
  static ReplicatedSet decode(Reader& reader);

  /// Behavioural spec: factory, representative ops, probe base states.
  [[nodiscard]] static object::SequentialSpec seq_spec();

  /// Derived table: add/nop commutative; rem/has/snap sync.
  [[nodiscard]] static CommutativitySpec spec();

  using Op = object::Op;
  static Op add(const std::string& element);
  static Op rem(const std::string& element);
  static Op has(const std::string& element);
  /// State-inert full read (the cluster's round-closing sync op).
  static Op snap();
  /// Commutative inert marker (see Counter::nop).
  static Op nop(std::uint64_t tag = 0);

 private:
  std::set<std::string> elements_;
};

}  // namespace cbc::apps
