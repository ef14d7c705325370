// Unit and property tests for BitVector / BitWriter / BitReader.
#include "src/common/bits.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace xpl {
namespace {

TEST(BitVector, DefaultIsZero) {
  BitVector v(100);
  EXPECT_EQ(v.width(), 100u);
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, ConstructFromValue) {
  BitVector v(16, 0xABCD);
  EXPECT_EQ(v.to_u64(), 0xABCDu);
  EXPECT_EQ(v.width(), 16u);
}

TEST(BitVector, ConstructRejectsOverflowingValue) {
  EXPECT_THROW(BitVector(4, 0x1F), Error);
}

TEST(BitVector, SetGetSingleBits) {
  BitVector v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_FALSE(v.get(128));
  EXPECT_EQ(v.popcount(), 3u);
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, SliceWithinWord) {
  BitVector v(32, 0xDEADBEEF);
  EXPECT_EQ(v.slice(0, 16), 0xBEEFu);
  EXPECT_EQ(v.slice(16, 16), 0xDEADu);
  EXPECT_EQ(v.slice(4, 8), 0xEEu);
}

TEST(BitVector, SliceAcrossWordBoundary) {
  BitVector v(128);
  v.deposit(60, 16, 0xA5C3);
  EXPECT_EQ(v.slice(60, 16), 0xA5C3u);
  EXPECT_EQ(v.slice(60, 4), 0x3u);
  EXPECT_EQ(v.slice(64, 12), 0xA5Cu);
}

TEST(BitVector, DepositDoesNotDisturbNeighbors) {
  BitVector v(64, 0);
  v.deposit(0, 64, ~std::uint64_t{0});
  v.deposit(8, 8, 0);
  EXPECT_EQ(v.slice(0, 8), 0xFFu);
  EXPECT_EQ(v.slice(8, 8), 0x00u);
  EXPECT_EQ(v.slice(16, 8), 0xFFu);
}

TEST(BitVector, DepositFullWordAtOffsetZero) {
  BitVector v(64);
  v.deposit(0, 64, 0x0123456789ABCDEFull);
  EXPECT_EQ(v.to_u64(), 0x0123456789ABCDEFull);
}

TEST(BitVector, SubvectorAndDepositVectorRoundTrip) {
  Rng rng(7);
  BitVector v(200);
  for (std::size_t i = 0; i < 200; ++i) v.set(i, rng.chance(0.5));
  const BitVector mid = v.subvector(77, 100);
  BitVector w(200);
  w.deposit_vector(77, mid);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(w.get(77 + i), v.get(77 + i)) << "bit " << i;
  }
}

TEST(BitVector, ParityMatchesPopcount) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    BitVector v(97);
    for (std::size_t i = 0; i < 97; ++i) v.set(i, rng.chance(0.3));
    EXPECT_EQ(v.parity(), (v.popcount() % 2) == 1);
  }
}

TEST(BitVector, XorIsInvolution) {
  Rng rng(11);
  BitVector a(150);
  BitVector b(150);
  for (std::size_t i = 0; i < 150; ++i) {
    a.set(i, rng.chance(0.5));
    b.set(i, rng.chance(0.5));
  }
  BitVector c = a;
  c ^= b;
  c ^= b;
  EXPECT_EQ(c, a);
}

TEST(BitVector, ToStringMsbFirst) {
  BitVector v(4, 0b1010);
  EXPECT_EQ(v.to_string(), "1010");
}

TEST(BitVector, ResizeShrinkMasksTop) {
  BitVector v(16, 0xFFFF);
  v.resize(4);
  EXPECT_EQ(v.to_u64(), 0xFu);
  v.resize(16);
  EXPECT_EQ(v.to_u64(), 0xFu);
}

TEST(BitWriter, FieldsLandLsbFirst) {
  BitWriter w(20);
  w.put(4, 0xA).put(8, 0x5C).put(8, 0x31);
  EXPECT_EQ(w.bits().slice(0, 4), 0xAu);
  EXPECT_EQ(w.bits().slice(4, 8), 0x5Cu);
  EXPECT_EQ(w.bits().slice(12, 8), 0x31u);
}

TEST(BitWriter, OverflowThrows) {
  BitWriter w(8);
  w.put(8, 0xFF);
  EXPECT_THROW(w.put(1, 0), Error);
}

TEST(BitReaderWriter, RoundTripRandomFields) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::pair<std::size_t, std::uint64_t>> fields;
    std::size_t total = 0;
    while (total < 150) {
      const std::size_t bits = 1 + rng.next_below(40);
      const std::uint64_t value =
          rng.next_u64() & ((bits == 64) ? ~0ull : ((1ull << bits) - 1));
      fields.emplace_back(bits, value);
      total += bits;
    }
    BitWriter w(total);
    for (const auto& [bits, value] : fields) w.put(bits, value);
    BitReader r(w.bits());
    for (const auto& [bits, value] : fields) {
      EXPECT_EQ(r.get(bits), value);
    }
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(BitsFor, KnownValues) {
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(8), 3u);
  EXPECT_EQ(bits_for(9), 4u);
  EXPECT_EQ(bits_for(1024), 10u);
}

TEST(CeilDiv, KnownValues) {
  EXPECT_EQ(ceil_div(10, 5), 2u);
  EXPECT_EQ(ceil_div(11, 5), 3u);
  EXPECT_EQ(ceil_div(1, 64), 1u);
  EXPECT_EQ(ceil_div(64, 64), 1u);
  EXPECT_EQ(ceil_div(65, 64), 2u);
}

// Word-boundary sweep for the whole-vector operations that got word-level
// fast paths (equality, XOR, subvector, deposit_vector): widths straddling
// one and two word boundaries, aligned and unaligned positions.
class WordBoundaryOps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WordBoundaryOps, EqualityAndXorAreValueBased) {
  const std::size_t width = GetParam();
  Rng rng(width);
  BitVector a(width);
  for (std::size_t i = 0; i < width; ++i) a.set(i, rng.chance(0.5));
  BitVector b = a;
  EXPECT_EQ(a, b);
  // Flipping the top bit (the masked partial-word region) must break
  // equality; XORing the same vector twice must restore it.
  b.set(width - 1, !b.get(width - 1));
  EXPECT_NE(a, b);
  BitVector delta(width);
  delta.set(width - 1, true);
  b ^= delta;
  EXPECT_EQ(a, b);
  b ^= b;
  EXPECT_TRUE(b.is_zero());
}

TEST_P(WordBoundaryOps, SubvectorMatchesBitwiseExtraction) {
  const std::size_t width = GetParam();
  Rng rng(width + 1);
  BitVector v(width);
  for (std::size_t i = 0; i < width; ++i) v.set(i, rng.chance(0.5));
  // Aligned (fast path), off-by-one, and mid-word positions.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{1},
                                std::size_t{63} % width}) {
    const std::size_t count = width - pos;
    const BitVector sub = v.subvector(pos, count);
    ASSERT_EQ(sub.width(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(sub.get(i), v.get(pos + i)) << "pos=" << pos << " i=" << i;
    }
  }
}

TEST_P(WordBoundaryOps, DepositVectorMatchesBitwiseDeposit) {
  const std::size_t width = GetParam();
  Rng rng(width + 2);
  BitVector value(width);
  for (std::size_t i = 0; i < width; ++i) value.set(i, rng.chance(0.5));
  for (const std::size_t pos : {std::size_t{0}, std::size_t{64},
                                std::size_t{5}}) {
    BitVector dst(pos + width + 3);
    for (std::size_t i = 0; i < dst.width(); ++i) dst.set(i, true);
    dst.deposit_vector(pos, value);
    for (std::size_t i = 0; i < width; ++i) {
      ASSERT_EQ(dst.get(pos + i), value.get(i)) << "pos=" << pos;
    }
    // Neighbours untouched.
    for (std::size_t i = 0; i < pos; ++i) ASSERT_TRUE(dst.get(i));
    for (std::size_t i = pos + width; i < dst.width(); ++i) {
      ASSERT_TRUE(dst.get(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Boundary, WordBoundaryOps,
                         ::testing::Values<std::size_t>(63, 64, 65, 127, 128,
                                                        129, 192, 200));

// Small-buffer optimization: flit-range vectors must stay inline and
// resizing across the inline/heap boundary must preserve value semantics.
TEST(BitVector, ResizeAcrossInlineHeapBoundary) {
  const std::size_t inline_bits = BitVector::kInlineWords * 64;
  BitVector v(64, 0xFEEDFACEDEADBEEFull);
  v.resize(inline_bits + 64);  // inline -> heap
  EXPECT_EQ(v.slice(0, 64), 0xFEEDFACEDEADBEEFull);
  EXPECT_EQ(v.popcount(), BitVector(64, 0xFEEDFACEDEADBEEFull).popcount());
  v.set(inline_bits + 63, true);
  v.resize(64);  // heap -> inline, dropping the high bits
  EXPECT_EQ(v.to_u64(), 0xFEEDFACEDEADBEEFull);
  v.resize(inline_bits + 64);  // back out: dropped bits must stay dropped
  EXPECT_EQ(v.popcount(), BitVector(64, 0xFEEDFACEDEADBEEFull).popcount());
  for (std::size_t i = 64; i < v.width(); ++i) ASSERT_FALSE(v.get(i));
}

TEST(BitVector, ShrinkWithinInlineClearsDroppedWords) {
  BitVector v(192);
  v.set(190, true);
  v.set(100, true);
  v.resize(64);
  v.resize(192);
  EXPECT_TRUE(v.is_zero());
}

// Value semantics across the inline/heap boundary: every (source width,
// target width) pair of copy/move construction and assignment, so inline
// -> heap and heap -> inline targets are both covered.
BitVector random_bits(std::size_t width, std::uint64_t seed) {
  Rng rng(seed);
  BitVector v(width);
  for (std::size_t i = 0; i < width; ++i) v.set(i, rng.chance(0.5));
  return v;
}

// A moved-from or reused vector must still behave as a value.
void expect_reusable(BitVector& v) {
  v.resize(130);
  EXPECT_EQ(v.width(), 130u);
  v.deposit(100, 30, 0x2AAAAAAA);
  EXPECT_EQ(v.slice(100, 30), 0x2AAAAAAAu);
  v = random_bits(300, 5);
  EXPECT_EQ(v, random_bits(300, 5));
  v = BitVector(3, 5);
  EXPECT_EQ(v.to_u64(), 5u);
}

class ValueSemantics
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ValueSemantics, CopyAndMove) {
  const auto [src_width, dst_width] = GetParam();
  const bool src_inline = src_width <= BitVector::kInlineWords * 64;
  const BitVector ref = random_bits(src_width, src_width + 1);

  BitVector copied(ref);
  EXPECT_EQ(copied, ref);
  EXPECT_EQ(copied.width(), src_width);

  BitVector src = ref;
  BitVector moved(std::move(src));
  EXPECT_EQ(moved, ref);
  // Moved-from: unchanged if it was inline, width 0 if it owned the heap.
  EXPECT_EQ(src.width(), src_inline ? src_width : 0u);
  if (src_inline) {
    EXPECT_EQ(src, ref);
  }
  expect_reusable(src);

  BitVector dst = random_bits(dst_width, dst_width + 7);
  dst = ref;
  EXPECT_EQ(dst, ref);
  // The copy is independent of its source.
  if (src_width > 0) {
    dst.set(0, !dst.get(0));
    EXPECT_NE(dst, ref);
  }

  BitVector dst2 = random_bits(dst_width, dst_width + 9);
  BitVector src2 = ref;
  dst2 = std::move(src2);
  EXPECT_EQ(dst2, ref);
  EXPECT_EQ(src2.width(), src_inline ? src_width : 0u);
  expect_reusable(src2);
  expect_reusable(dst2);

  BitVector self = ref;
  BitVector& alias = self;
  self = alias;
  EXPECT_EQ(self, ref);
  self = std::move(alias);
  EXPECT_EQ(self, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ValueSemantics,
    ::testing::Combine(
        ::testing::Values<std::size_t>(0, 1, 64, 128, 192, 193, 200, 1000),
        ::testing::Values<std::size_t>(0, 1, 64, 128, 192, 193, 200, 1000)));

// Property sweep: deposit/slice agree for every (pos, count) pair on a
// couple of widths spanning word boundaries.
class DepositSliceSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(DepositSliceSweep, RoundTrip) {
  const auto [width, step] = GetParam();
  Rng rng(width * 31 + step);
  BitVector v(width);
  for (std::size_t pos = 0; pos + step <= width; pos += 7) {
    const std::uint64_t value =
        rng.next_u64() & ((step == 64) ? ~0ull : ((1ull << step) - 1));
    v.deposit(pos, step, value);
    ASSERT_EQ(v.slice(pos, step), value) << "pos=" << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, DepositSliceSweep,
    ::testing::Combine(::testing::Values<std::size_t>(64, 65, 127, 128, 200),
                       ::testing::Values<std::size_t>(1, 3, 17, 33, 64)));

}  // namespace
}  // namespace xpl
