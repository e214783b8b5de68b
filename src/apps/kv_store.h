// Replicated key-value store — the state machine one `cbc_kv` shard
// replicates (§5.2's partitioned shared data).
//
// Operations: put(key, value) overwrites one key and commutes with puts
// to *other* keys; get(key) observes a value and fence() observes the
// whole-state digest, so both are sync operations closing causal
// activities. The derived C-class is {put, nop}.
//
// The probe set is the domain claim (see object/sequential_spec.h): put
// probes use DISTINCT keys because the kv workload guarantees one writer
// per key slot within any open causal cycle — sessions write their own
// key namespace, and cross-round rewrites of a slot are separated by the
// round-closing fence. Concurrent puts to the same key are outside the
// claimed domain, exactly like same-(turn,player) plays in the card game.
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

/// State machine of a string->string map under put/get/fence.
class KvStore {
 public:
  /// Applies one decoded operation and returns its response: put and nop
  /// return empty; get returns [bool present][str value]; fence returns
  /// [u64 digest] of the serialized map. Unknown kinds throw
  /// InvalidArgument.
  std::vector<std::uint8_t> apply(std::string_view kind, Reader& args);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::optional<std::string> lookup(
      const std::string& key) const;
  [[nodiscard]] std::uint64_t ops_applied() const { return ops_applied_; }

  bool operator==(const KvStore& other) const {
    return entries_ == other.entries_;  // op count is bookkeeping, not state
  }

  [[nodiscard]] std::string to_string() const;

  /// Snapshot serialization (checkpointing / recovery state transfer).
  void encode(Writer& writer) const;
  static KvStore decode(Reader& reader);

  /// Behavioural spec: factory, representative ops, probe base states.
  [[nodiscard]] static object::SequentialSpec seq_spec();

  /// Derived operation-commutativity table: put/nop commutative; get and
  /// fence sync ops whose mutual pairs commute (probed, not hand-labelled).
  [[nodiscard]] static CommutativitySpec spec();

  // --- Operation builders (label kind, encoded args) ---
  using Op = object::Op;
  static Op put(std::string_view key, std::string_view value);
  static Op get(std::string_view key);
  /// State-inert sync op: its response is the digest of the sub-map whose
  /// keys hash into `bucket` of `buckets` (default: the whole map), so it
  /// closes causal activities (two fences around a put disagree) while
  /// leaving the map untouched. Sharded deployments fence with
  /// (shard, shard_count) so a merged multi-shard replay still reproduces
  /// each shard's responses.
  static Op fence(std::uint64_t bucket = 0, std::uint64_t buckets = 1);
  static Op nop(std::uint64_t tag = 0);

 private:
  std::map<std::string, std::string> entries_;
  std::uint64_t ops_applied_ = 0;
};

}  // namespace cbc::apps
