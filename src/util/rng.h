// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the library (netem jitter/loss, resolver IPv6
// choices, the Safari dynamic-CAD model, web-condition noise) draws from these
// generators, seeded explicitly by the caller, so every experiment is
// reproducible.
#pragma once

#include <cstdint>
#include <limits>

#include "util/time.h"

namespace lazyeye {

/// SplitMix64 — used for seeding and for cheap independent streams.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_{seed} {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the main generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial.
  bool chance(double probability);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in_range(std::int64_t lo, std::int64_t hi);

  /// Uniform duration in [lo, hi] inclusive.
  SimTime next_duration(SimTime lo, SimTime hi);

  /// Split off an independently-seeded child stream.
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace lazyeye
