// Capped exponential backoff with deterministic jitter (DESIGN.md "Fault
// model"): client reconnects and the SHB's nack and setup retries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace gryphon {

/// Retry k (0-based) waits min(base * multiplier^k, max), scaled by a
/// deterministic jitter factor in [1 - jitter, 1 + jitter) hashed from two
/// caller-chosen salts and k. No shared RNG is consumed, so retry timing is
/// replayable and never perturbs determinism elsewhere; distinct salts still
/// spread out instead of retrying in sync.
struct Backoff {
  SimDuration base;
  SimDuration max;
  double multiplier = 2.0;
  double jitter = 0.2;

  [[nodiscard]] SimDuration delay(std::uint64_t salt_a, std::uint64_t salt_b,
                                  std::uint64_t retry) const {
    const auto cap = static_cast<double>(max);
    double d = static_cast<double>(base);
    for (std::uint64_t k = 0; k < retry && d < cap; ++k) d *= multiplier;
    d = std::min(d, cap);
    const std::uint64_t h = splitmix64_finalize((salt_a + 1) * 0x9e3779b97f4a7c15ULL ^
                                                (salt_b + 1) * 0xbf58476d1ce4e5b9ULL ^
                                                (retry + 1) * 0x94d049bb133111ebULL);
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    d *= 1.0 - jitter + 2.0 * jitter * unit;
    return std::max<SimDuration>(1, static_cast<SimDuration>(std::llround(d)));
  }
};

}  // namespace gryphon
