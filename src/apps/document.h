// Shared design document — the conferencing example (§1, §5.2, ref [11]).
//
// Conference participants collaboratively annotate sections of a document
// from their workstations. Annotations on any section are commutative
// (each is an independent remark; the set of remarks is what matters), a
// section rewrite is non-commutative, and a checkpoint ("publish") closes
// a causal activity so every participant's window agrees.
//
// spec() derives the table from seq_spec(). publish responds with the
// state digest it certified — that observation is what keeps it a sync op
// (two publishes see different digests depending on order). snap is a
// pure digest read: state-inert but ordered against annotations, which
// makes it the cluster's round-closing sync op.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "activity/commutativity.h"
#include "object/sequential_spec.h"
#include "util/serde.h"

namespace cbc::apps {

/// State machine of a sectioned document under annotate/rewrite/publish.
class Document {
 public:
  /// Applies one operation; publish/snap respond with the state digest,
  /// updates respond empty. Unknown kinds throw InvalidArgument.
  std::vector<std::uint8_t> apply(std::string_view kind, Reader& args);

  /// Annotations on a section (set semantics — order-free, so concurrent
  /// annotations commute).
  [[nodiscard]] const std::set<std::string>& annotations(
      const std::string& section) const;

  /// Current body text of a section ("" when never rewritten).
  [[nodiscard]] std::string body(const std::string& section) const;

  /// Number of publish checkpoints applied.
  [[nodiscard]] std::uint64_t publish_count() const { return publishes_; }

  bool operator==(const Document& other) const {
    return annotations_ == other.annotations_ && bodies_ == other.bodies_ &&
           publishes_ == other.publishes_;
  }

  [[nodiscard]] std::string to_string() const;

  /// Snapshot serialization (checkpointing / recovery state transfer).
  void encode(Writer& writer) const;
  static Document decode(Reader& reader);

  /// Behavioural spec: factory, representative ops, probe base states.
  [[nodiscard]] static object::SequentialSpec seq_spec();

  /// Derived table: annotate/nop commutative; rewrite/publish/snap sync.
  [[nodiscard]] static CommutativitySpec spec();

  using Op = object::Op;
  static Op annotate(const std::string& section, const std::string& remark);
  static Op rewrite(const std::string& section, const std::string& text);
  static Op publish();
  /// State-inert digest read (the cluster's round-closing sync op).
  static Op snap();
  /// Commutative inert marker (see Counter::nop).
  static Op nop(std::uint64_t tag = 0);

 private:
  [[nodiscard]] std::uint64_t digest() const;

  std::map<std::string, std::set<std::string>> annotations_;
  std::map<std::string, std::string> bodies_;
  std::uint64_t publishes_ = 0;
};

}  // namespace cbc::apps
