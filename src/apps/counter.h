// Replicated integer counter — the paper's running example (§2.2, §5.1).
//
// Operations: inc(k) and dec(k) are commutative with each other ("the
// increment and decrement operations on same integer data are
// commutative"); rd and set are non-commutative and close causal
// activities:   ||{inc, dec}  →  rd     (§5.1's relaxed ordering).
//
// The commutativity table is no longer hand-labelled: spec() derives it
// by probing seq_spec() — inc/dec/nop land in the C-class because no
// probe order changes the state or a response, rd is a sync op because
// its response observes the value, set because two sets conflict.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "activity/commutativity.h"
#include "object/sequential_spec.h"
#include "util/serde.h"

namespace cbc::apps {

/// State machine of one integer register under inc/dec/set/rd.
class Counter {
 public:
  /// Applies one decoded operation and returns its response (rd returns
  /// the observed value; updates return empty). Unknown kinds throw
  /// InvalidArgument.
  std::vector<std::uint8_t> apply(std::string_view kind, Reader& args);

  [[nodiscard]] std::int64_t value() const { return value_; }
  [[nodiscard]] std::uint64_t ops_applied() const { return ops_applied_; }

  bool operator==(const Counter& other) const {
    return value_ == other.value_;  // op count is bookkeeping, not state
  }

  [[nodiscard]] std::string to_string() const;

  /// Snapshot serialization (checkpointing / recovery state transfer).
  void encode(Writer& writer) const;
  static Counter decode(Reader& reader);

  /// Behavioural spec: factory, representative ops, probe base states.
  [[nodiscard]] static object::SequentialSpec seq_spec();

  /// Derived operation-commutativity table: inc/dec/nop commutative;
  /// set/rd sync ops (probed, not hand-labelled).
  [[nodiscard]] static CommutativitySpec spec();

  // --- Operation builders (label kind, encoded args) ---
  using Op = object::Op;
  static Op inc(std::int64_t by = 1);
  static Op dec(std::int64_t by = 1);
  static Op set(std::int64_t to);
  static Op rd();
  /// Commutative no-op marker. Changes no state; the tag rides in the
  /// payload (and hence in content digests). Cluster workloads use it as
  /// an in-band round/departure marker: being commutative it joins the
  /// open causal cycle, being inert it cannot perturb the counter.
  static Op nop(std::uint64_t tag = 0);

 private:
  std::int64_t value_ = 0;
  std::uint64_t ops_applied_ = 0;
};

}  // namespace cbc::apps
