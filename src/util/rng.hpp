// Deterministic pseudo-random number generation.
//
// Experiments must be bit-for-bit reproducible across runs and platforms, so
// we carry our own small generator (splitmix64 seeding a xoshiro256**)
// instead of relying on unspecified standard-library distributions.
#pragma once

#include <cstdint>

#include "util/assert.hpp"

namespace gryphon {

/// splitmix64's output function: a full-avalanche 64-bit mix.
[[nodiscard]] constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64's state increment (the golden-ratio gamma).
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/// One splitmix64 output from state x: the deterministic mixer behind every
/// seeded draw that must not consume a shared Rng (frame mangling, disk read
/// faults, sampled codec verification, subscriber sharding, Rng seeding).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return splitmix64_finalize(x + kSplitmixGamma);
}

/// xoshiro256** seeded via splitmix64. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = kSplitmixGamma) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : s_) {
      word = splitmix64(x);
      x += kSplitmixGamma;
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    GRYPHON_CHECK(bound > 0);
    // Lemire's multiply-shift rejection method, bias-free.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    GRYPHON_CHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (clamped to [0,1]).
  bool next_bool(double p) { return next_double() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  double next_exponential(double mean);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
};

}  // namespace gryphon
