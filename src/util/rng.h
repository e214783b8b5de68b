// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (network jitter, workload
// generators, interleaving fuzzers) draws from an explicitly seeded Rng so
// that simulations, tests, and benches reproduce bit-for-bit — mirroring
// the paper's emphasis on behaviour that is "reproducible across different
// execution instances".
#pragma once

#include <cstdint>
#include <vector>

#include "util/ensure.h"

namespace cbc {

/// SplitMix64-based deterministic generator. Small, fast, and fully
/// specified here so results do not depend on the standard library's
/// distribution implementations.
class Rng {
 public:
  /// Constructs a generator from a seed; equal seeds give equal streams.
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    state_ += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    require(bound > 0, "Rng::next_below bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    require(lo <= hi, "Rng::next_in requires lo <= hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next_u64()
                                                    : next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Derives an independent child generator (for per-node streams).
  Rng split() { return Rng(next_u64() ^ 0xA5A5A5A55A5A5A5AULL); }

  /// Fisher–Yates shuffle of a vector, in place.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace cbc
