// Name registry — the paper's name-service example (§5.2).
//
// upd(name, value) registers or overwrites a binding; qry(name) resolves
// one. Queries are commutative with each other; updates are not (two
// updates to the same name conflict, and a query's result depends on which
// updates preceded it). §5.2 uses this service to motivate the
// application-specific consistency protocol in src/appcons: queries carry
// context about the updates they observed so members can detect and
// discard inconsistent results.
//
// spec() derives the table from seq_spec(): the probe set includes two
// updates to the same name (so upd conflicts with itself) and queries
// against updated names (so upd/qry conflict through the query response).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "activity/commutativity.h"
#include "object/sequential_spec.h"
#include "util/serde.h"

namespace cbc::apps {

/// State machine of a name->value registry under upd/qry.
class Registry {
 public:
  /// Applies one operation; qry responds with (found, value), updates
  /// respond empty. Unknown kinds throw InvalidArgument.
  std::vector<std::uint8_t> apply(std::string_view kind, Reader& args);

  /// Current binding for `name`, if any.
  [[nodiscard]] std::optional<std::string> lookup(const std::string& name) const;

  /// Number of distinct bound names.
  [[nodiscard]] std::size_t size() const { return bindings_.size(); }

  /// Count of updates applied per name (used by context checks).
  [[nodiscard]] std::uint64_t update_count(const std::string& name) const;

  bool operator==(const Registry& other) const {
    return bindings_ == other.bindings_;
  }

  [[nodiscard]] std::string to_string() const;

  /// Snapshot serialization (checkpointing / recovery state transfer).
  void encode(Writer& writer) const;
  static Registry decode(Reader& reader);

  /// Behavioural spec: factory, representative ops, probe base states.
  [[nodiscard]] static object::SequentialSpec seq_spec();

  /// Derived table: qry/nop commutative; upd a sync op.
  [[nodiscard]] static CommutativitySpec spec();

  using Op = object::Op;
  static Op upd(const std::string& name, const std::string& value);
  static Op qry(const std::string& name);
  /// Commutative inert marker (see Counter::nop).
  static Op nop(std::uint64_t tag = 0);

  /// Decodes the name argument of an upd/qry payload (shared with the
  /// appcons protocol, which needs to inspect requests).
  static std::string decode_name(Reader& args);

 private:
  std::map<std::string, std::string> bindings_;
  std::map<std::string, std::uint64_t> update_counts_;
};

}  // namespace cbc::apps
