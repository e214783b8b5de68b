// Multiplayer card game — the paper's relaxed-turn-order example (§5.1).
//
// r players take turns in a pre-sequence, but player l's action does not
// depend on the immediately preceding player — only on some earlier player
// k. The paper relaxes the ordering to
//     card_k → card_l   and   ||{card_l, card_i}  for i = k+1 .. l-1,
// letting intermediate players' cards arrive in any order. Plays are kept
// as a set keyed by (turn, player), so concurrent plays commute; a
// round_end marker is the sync operation closing each round's activity.
//
// spec() derives the table from seq_spec(). The probe set IS the game's
// domain claim: every probed play uses a distinct (turn, player) key,
// because the rules guarantee one play per key — that is why card lands
// in the C-class. round_end responds with the plays it scored and peek
// observes one play, so both conflict with card and stay sync.
//
// TurnPlan captures "which player each player actually depends on" and is
// what examples/benches use to generate the Occurs_After edges.
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

/// State machine recording card plays per (turn, player).
class CardGame {
 public:
  /// Applies one operation; round_end responds with the plays count it
  /// scored, peek with the observed card. Unknown kinds throw
  /// InvalidArgument.
  std::vector<std::uint8_t> apply(std::string_view kind, Reader& args);

  /// Card played by `player` at `turn`, or -1 when not played.
  [[nodiscard]] std::int64_t card_at(std::uint64_t turn,
                                     std::uint32_t player) const;

  [[nodiscard]] std::size_t plays() const { return plays_.size(); }
  [[nodiscard]] std::uint64_t rounds_ended() const { return rounds_ended_; }

  bool operator==(const CardGame& other) const {
    return plays_ == other.plays_ && rounds_ended_ == other.rounds_ended_;
  }

  [[nodiscard]] std::string to_string() const;

  /// Snapshot serialization (checkpointing / recovery state transfer).
  void encode(Writer& writer) const;
  static CardGame decode(Reader& reader);

  /// Behavioural spec: factory, representative ops, probe base states.
  [[nodiscard]] static object::SequentialSpec seq_spec();

  /// Derived table: card/nop commutative; round_end/peek sync.
  [[nodiscard]] static CommutativitySpec spec();

  using Op = object::Op;
  static Op card(std::uint64_t turn, std::uint32_t player, std::int64_t value);
  static Op round_end(std::uint64_t turn);
  /// State-inert read of one play (the cluster's round-closing sync op).
  static Op peek(std::uint64_t turn, std::uint32_t player);
  /// Commutative inert marker (see Counter::nop).
  static Op nop(std::uint64_t tag = 0);

 private:
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::int64_t> plays_;
  std::uint64_t rounds_ended_ = 0;
};

/// The pre-sequence dependency plan of §5.1: for each player l (0-based
/// position in the turn order), dependency(l) names the earlier position k
/// whose card player l actually waits for. dependency(0) is the previous
/// round's end. The plan is what generates relaxed Occurs_After edges; a
/// strict round-robin plan (dependency(l) = l-1) reproduces the
/// conservative total turn order the paper improves on.
class TurnPlan {
 public:
  /// Strict plan: every player waits for the immediately preceding one.
  static TurnPlan strict(std::uint32_t players);

  /// Relaxed plan with explicit per-position dependencies. deps[l] must be
  /// < l (deps[0] is ignored; position 0 depends on the round start).
  static TurnPlan relaxed(std::vector<std::uint32_t> deps);

  [[nodiscard]] std::uint32_t players() const {
    return static_cast<std::uint32_t>(deps_.size());
  }

  /// Position whose card position `l` depends on (l > 0).
  [[nodiscard]] std::uint32_t dependency(std::uint32_t l) const;

  /// Longest dependency chain length in one round — the round's critical
  /// path, which bounds achievable concurrency (bench C6 reports it).
  [[nodiscard]] std::uint32_t critical_path() const;

 private:
  explicit TurnPlan(std::vector<std::uint32_t> deps) : deps_(std::move(deps)) {}
  std::vector<std::uint32_t> deps_;
};

}  // namespace cbc::apps
