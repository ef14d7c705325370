// Deterministic pseudo-random number generation for simulation.
//
// All stochastic behaviour in the library (traffic generation, link error
// injection, arbitration tie randomization in tests) draws from Rng so that
// every experiment is reproducible from a single seed.
#pragma once

#include <cmath>
#include <cstdint>

namespace xpl {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed) {
    auto splitmix = [&seed]() {
      seed += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return z ^ (z >> 31);
    };
    for (auto& w : state_) w = splitmix();
  }

  /// Next 64 uniformly random bits.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Debiased via rejection on the top range.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Integer form of chance(p) for 0 < p < 1, to hoist out of loops that
  /// test one p many times: there chance(p) draws once and equals
  /// below_threshold(chance_threshold(p)), because next_double() is
  /// x * 2^-53 for x = next_u64() >> 11, and x * 2^-53 < p  <=>
  /// x < ceil(p * 2^53) (the scaling is exact, subnormals included).
  /// NaN maps to 0 and p >= 1 to 2^53. chance() draws nothing at p <= 0
  /// or p >= 1, so callers keeping a stream in step branch on those first.
  static std::uint64_t chance_threshold(double p) {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
  }

  /// One draw: true iff its top 53 bits fall below `threshold`.
  bool below_threshold(std::uint64_t threshold) {
    return (next_u64() >> 11) < threshold;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace xpl
