// The newest part of a chained digest sequence, sized by a constant
// rather than by the run.
//
// Each digest of the stable-point chain (check/invariant_checker.h) folds
// every earlier one, so two chains that agree at a cycle agree on every
// cycle before it, and the newest kCapacity digests plus the length of
// the whole chain stand in for it. The checker keeps one window,
// checkpoints carry one (fault/checkpoint.h), and crash recovery compares
// two where they overlap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace cbc {

/// A view of one window: `digests` are the chain's newest, and the last
/// of them is cycle `cycles`'s (cycles count from 1).
struct DigestWindow {
  /// Digests a bounded window keeps: the checker's default, and exactly
  /// min(cycles, kCapacity) in every checkpoint.
  static constexpr std::size_t kCapacity = 64;

  std::uint64_t cycles = 0;
  std::span<const std::uint64_t> digests;

  /// The oldest cycle the window holds (cycles + 1 when it is empty).
  [[nodiscard]] std::uint64_t first() const {
    return cycles - digests.size() + 1;
  }

  /// The digest of `cycle` while the window holds it.
  [[nodiscard]] std::optional<std::uint64_t> at(std::uint64_t cycle) const {
    if (cycle < first() || cycle > cycles) {
      return std::nullopt;
    }
    return digests[cycle - first()];
  }
};

/// Cycles both windows hold.
[[nodiscard]] inline std::uint64_t overlap(DigestWindow a, DigestWindow b) {
  const std::uint64_t first = std::max(a.first(), b.first());
  const std::uint64_t last = std::min(a.cycles, b.cycles);
  return last >= first ? last - first + 1 : 0;
}

/// The first cycle both windows hold on which they disagree; nullopt when
/// they agree wherever they overlap, which includes overlap() == 0.
[[nodiscard]] inline std::optional<std::uint64_t> first_divergent_cycle(
    DigestWindow a, DigestWindow b) {
  const std::uint64_t last = std::min(a.cycles, b.cycles);
  for (std::uint64_t cycle = std::max(a.first(), b.first()); cycle <= last;
       ++cycle) {
    if (a.at(cycle) != b.at(cycle)) {
      return cycle;
    }
  }
  return std::nullopt;
}

}  // namespace cbc
