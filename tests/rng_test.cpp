// Statistical sanity tests for the simulation RNG.
#include "src/common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace xpl {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(77);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(77);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(21);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(33);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// The integer threshold form must reproduce chance(p) draw for draw:
// two identical streams, one through chance(p), one through
// below_threshold(chance_threshold(p)), over 10M draws per p — plus the
// boundary itself, where x * 2^-53 < p must flip exactly at x == t.
TEST(Rng, ThresholdMatchesChanceExactly) {
  const double probabilities[] = {
      2e-5, 1e-4, 1e-3, 0.5, std::nextafter(1.0, 0.0), std::ldexp(1.0, -60),
      std::numeric_limits<double>::denorm_min()};
  for (const double p : probabilities) {
    const std::uint64_t t = Rng::chance_threshold(p);
    ASSERT_GE(t, 1u) << p;
    ASSERT_LE(t, std::uint64_t{1} << 53) << p;
    for (std::uint64_t x = t > 2 ? t - 2 : 0; x <= t + 1; ++x) {
      EXPECT_EQ(static_cast<double>(x) * 0x1.0p-53 < p, x < t)
          << "p=" << p << " x=" << x;
    }
    Rng a(2024);
    Rng b(2024);
    std::uint64_t hits = 0;
    for (int i = 0; i < 10'000'000; ++i) {
      const bool want = a.chance(p);
      ASSERT_EQ(b.below_threshold(t), want) << "p=" << p << " draw " << i;
      hits += want ? 1 : 0;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "streams out of step, p=" << p;
    if (p == 0.5) {
      EXPECT_NEAR(static_cast<double>(hits) / 1e7, 0.5, 0.001);
    }
  }
}

TEST(Rng, ThresholdEdgeCases) {
  EXPECT_EQ(Rng::chance_threshold(0.0), 0u);
  EXPECT_EQ(Rng::chance_threshold(-1.0), 0u);
  EXPECT_EQ(Rng::chance_threshold(std::nan("")), 0u);
  EXPECT_EQ(Rng::chance_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::chance_threshold(2.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::chance_threshold(0.5), std::uint64_t{1} << 52);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(55);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BitBalance) {
  Rng rng(67);
  std::size_t ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    ones += static_cast<std::size_t>(__builtin_popcountll(rng.next_u64()));
  }
  const double frac = static_cast<double>(ones) / (64.0 * n);
  EXPECT_NEAR(frac, 0.5, 0.005);
}

}  // namespace
}  // namespace xpl
