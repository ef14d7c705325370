// Arbiter policies: correctness, fairness, and equivalence of the word
// arbiters with a per-requester reference scan.
#include "src/switchlib/arbiter.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/rng.hpp"

namespace xpl::switchlib {
namespace {

std::vector<std::uint64_t> mask(std::size_t n,
                                std::initializer_list<std::size_t> set) {
  std::vector<std::uint64_t> m(mask_words(n), 0);
  for (const auto i : set) mask_set(m, i);
  return m;
}

TEST(FixedPriorityArbiter, GrantsLowestIndex) {
  FixedPriorityArbiter arb(4);
  EXPECT_EQ(arb.grant(mask(4, {2, 3})).value(), 2u);
  EXPECT_EQ(arb.grant(mask(4, {0, 3})).value(), 0u);
  EXPECT_EQ(arb.grant(mask(4, {3})).value(), 3u);
}

TEST(FixedPriorityArbiter, NoRequestNoGrant) {
  FixedPriorityArbiter arb(4);
  EXPECT_FALSE(arb.grant(mask(4, {})).has_value());
}

TEST(FixedPriorityArbiter, StarvesHighIndices) {
  // Documented behaviour: under continuous low-index load, high indices
  // never win — the reason the paper also offers round robin.
  FixedPriorityArbiter arb(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arb.grant(mask(3, {0, 2})).value(), 0u);
  }
}

TEST(RoundRobinArbiter, RotatesAmongRequesters) {
  RoundRobinArbiter arb(4);
  const auto all = mask(4, {0, 1, 2, 3});
  EXPECT_EQ(arb.grant(all).value(), 0u);
  EXPECT_EQ(arb.grant(all).value(), 1u);
  EXPECT_EQ(arb.grant(all).value(), 2u);
  EXPECT_EQ(arb.grant(all).value(), 3u);
  EXPECT_EQ(arb.grant(all).value(), 0u);
}

TEST(RoundRobinArbiter, SkipsIdleRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(mask(4, {1, 3})).value(), 1u);
  EXPECT_EQ(arb.grant(mask(4, {1, 3})).value(), 3u);
  EXPECT_EQ(arb.grant(mask(4, {1, 3})).value(), 1u);
}

TEST(RoundRobinArbiter, NoRequestNoGrantKeepsPointer) {
  RoundRobinArbiter arb(3);
  EXPECT_EQ(arb.grant(mask(3, {2})).value(), 2u);
  EXPECT_FALSE(arb.grant(mask(3, {})).has_value());
  // Pointer still past 2: next grant starts the scan at 0.
  EXPECT_EQ(arb.grant(mask(3, {0, 2})).value(), 0u);
}

TEST(RoundRobinArbiter, FairUnderSaturation) {
  const std::size_t n = 5;
  RoundRobinArbiter arb(n);
  std::vector<int> wins(n, 0);
  const auto all = mask(n, {0, 1, 2, 3, 4});
  for (int i = 0; i < 1000; ++i) {
    ++wins[arb.grant(all).value()];
  }
  for (const int w : wins) EXPECT_EQ(w, 200);
}

TEST(RoundRobinArbiter, WrapsAcrossWords) {
  // 130 requesters span three words; the pointer crosses word boundaries
  // and wraps from the last, partial word back to the first.
  RoundRobinArbiter arb(130);
  const auto m = mask(130, {5, 63, 64, 129});
  EXPECT_EQ(arb.grant(m).value(), 5u);
  EXPECT_EQ(arb.grant(m).value(), 63u);
  EXPECT_EQ(arb.grant(m).value(), 64u);
  EXPECT_EQ(arb.grant(m).value(), 129u);
  EXPECT_EQ(arb.pointer(), 0u);
  EXPECT_EQ(arb.grant(m).value(), 5u);
}

TEST(Arbiter, PolicyDispatch) {
  Arbiter fixed(ArbiterKind::kFixedPriority, 3);
  Arbiter rr(ArbiterKind::kRoundRobin, 3);
  const auto all = mask(3, {0, 1, 2});
  EXPECT_EQ(fixed.grant(all).value(), 0u);
  EXPECT_EQ(fixed.grant(all).value(), 0u);
  EXPECT_EQ(rr.grant(all).value(), 0u);
  EXPECT_EQ(rr.grant(all).value(), 1u);
}

TEST(Arbiter, Names) {
  EXPECT_STREQ(arbiter_name(ArbiterKind::kFixedPriority), "fixed");
  EXPECT_STREQ(arbiter_name(ArbiterKind::kRoundRobin), "round-robin");
}

// Property: any single requester is always granted, for both policies.
class SingleRequesterSweep
    : public ::testing::TestWithParam<std::tuple<ArbiterKind, std::size_t>> {
};

TEST_P(SingleRequesterSweep, AlwaysGranted) {
  const auto [kind, n] = GetParam();
  Arbiter arb(kind, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto grant = arb.grant(mask(n, {i}));
    ASSERT_TRUE(grant.has_value());
    EXPECT_EQ(*grant, i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SingleRequesterSweep,
    ::testing::Combine(::testing::Values(ArbiterKind::kFixedPriority,
                                         ArbiterKind::kRoundRobin),
                       ::testing::Values<std::size_t>(1, 2, 4, 6, 8, 64, 65,
                                                      96, 130)));

// Reference model: the per-requester scans the word arbiters replaced —
// first set index for fixed priority, and for round robin a modulo walk
// from the pointer that moves the pointer to (winner + 1) % n.
struct ReferenceArbiter {
  ArbiterKind kind;
  std::size_t n;
  std::size_t pointer = 0;

  std::optional<std::size_t> grant(const std::vector<bool>& requests) {
    if (kind == ArbiterKind::kFixedPriority) {
      for (std::size_t i = 0; i < n; ++i) {
        if (requests[i]) return i;
      }
      return std::nullopt;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (pointer + k) % n;
      if (requests[i]) {
        pointer = (i + 1) % n;
        return i;
      }
    }
    return std::nullopt;
  }
};

// Differential check: at every width 1..130 (one, two and three words),
// 10k seeded random masks of varying density, the empty mask among them,
// give the reference's grant, and round robin leaves the same pointer.
TEST(WordArbiters, MatchReferenceScanAtEveryWidth) {
  for (const ArbiterKind kind :
       {ArbiterKind::kFixedPriority, ArbiterKind::kRoundRobin}) {
    for (std::size_t n = 1; n <= 130; ++n) {
      Rng rng(1000 * n + static_cast<std::uint64_t>(kind));
      FixedPriorityArbiter fixed(n);
      RoundRobinArbiter rr(n);
      ReferenceArbiter ref{kind, n};
      std::vector<bool> bits(n);
      std::vector<std::uint64_t> words(mask_words(n));
      for (int trial = 0; trial < 10000; ++trial) {
        // Density cycles through empty, sparse, half and dense masks.
        const double density = trial % 4 == 0   ? 0.0
                               : trial % 4 == 1 ? 2.0 / static_cast<double>(n)
                               : trial % 4 == 2 ? 0.5
                                                : 0.9;
        std::fill(words.begin(), words.end(), 0);
        for (std::size_t i = 0; i < n; ++i) {
          bits[i] = rng.chance(density);
          if (bits[i]) mask_set(words, i);
        }
        const auto want = ref.grant(bits);
        const auto got = kind == ArbiterKind::kFixedPriority
                             ? fixed.grant(words)
                             : rr.grant(words);
        ASSERT_EQ(got, want) << "n=" << n << " trial=" << trial;
        if (kind == ArbiterKind::kRoundRobin) {
          ASSERT_EQ(rr.pointer(), ref.pointer)
              << "n=" << n << " trial=" << trial;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xpl::switchlib
