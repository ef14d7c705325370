// Error-detection properties of the link-level checksum codes.
#include "src/common/crc.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.hpp"
#include "src/packet/flit.hpp"

namespace xpl {
namespace {

TEST(Crc, Widths) {
  EXPECT_EQ(crc_width(CrcKind::kNone), 0u);
  EXPECT_EQ(crc_width(CrcKind::kParity), 1u);
  EXPECT_EQ(crc_width(CrcKind::kCrc8), 8u);
  EXPECT_EQ(crc_width(CrcKind::kCrc16), 16u);
}

TEST(Crc, NoneAlwaysPasses) {
  BitVector v(40, 0x12345);
  EXPECT_TRUE(crc_check(CrcKind::kNone, v, 0));
}

TEST(Crc, ParityOfKnownVectors) {
  EXPECT_EQ(crc_compute(CrcKind::kParity, BitVector(8, 0b1011)), 1u);
  EXPECT_EQ(crc_compute(CrcKind::kParity, BitVector(8, 0b1111)), 0u);
  EXPECT_EQ(crc_compute(CrcKind::kParity, BitVector(8, 0)), 0u);
}

// Independent serial reference for the LFSR the hardware implements:
// LSB-first message order, MSB-first shift register, zero initial value.
// crc_compute runs a byte-at-a-time table form of the same recurrence;
// this sweep proves the two agree at every width, including the partial
// tail byte and the word boundaries (63/64/65/128).
std::uint16_t crc_serial_reference(const BitVector& bits, std::uint16_t poly,
                                   unsigned width) {
  std::uint16_t reg = 0;
  const auto top = static_cast<std::uint16_t>(1u << (width - 1));
  const auto mask = static_cast<std::uint16_t>(
      (width == 16) ? 0xFFFFu : ((1u << width) - 1));
  for (std::size_t i = 0; i < bits.width(); ++i) {
    const bool in = bits.get(i);
    const bool msb = (reg & top) != 0;
    reg = static_cast<std::uint16_t>((reg << 1) & mask);
    if (in != msb) reg = static_cast<std::uint16_t>(reg ^ poly);
  }
  return static_cast<std::uint16_t>(reg & mask);
}

TEST(Crc, TableFormMatchesSerialLfsrAtEveryWidth) {
  Rng rng(77);
  for (std::size_t width = 1; width <= 200; ++width) {
    for (int rep = 0; rep < 4; ++rep) {
      BitVector v(width);
      for (std::size_t i = 0; i < width; ++i) v.set(i, rng.chance(0.5));
      ASSERT_EQ(crc_compute(CrcKind::kCrc8, v),
                crc_serial_reference(v, 0x07, 8))
          << "crc8 width=" << width;
      ASSERT_EQ(crc_compute(CrcKind::kCrc16, v),
                crc_serial_reference(v, 0x1021, 16))
          << "crc16 width=" << width;
    }
  }
}

TEST(Crc, DeterministicAndSelfConsistent) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    BitVector v(70);
    for (std::size_t i = 0; i < 70; ++i) v.set(i, rng.chance(0.5));
    for (const auto kind :
         {CrcKind::kParity, CrcKind::kCrc8, CrcKind::kCrc16}) {
      const auto sum = crc_compute(kind, v);
      EXPECT_EQ(sum, crc_compute(kind, v));
      EXPECT_TRUE(crc_check(kind, v, sum));
    }
  }
}

TEST(Crc, ChecksumFitsDeclaredWidth) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    BitVector v(50);
    for (std::size_t i = 0; i < 50; ++i) v.set(i, rng.chance(0.5));
    EXPECT_LE(crc_compute(CrcKind::kParity, v), 1u);
    EXPECT_LE(crc_compute(CrcKind::kCrc8, v), 0xFFu);
  }
}

// Every code must detect every single-bit error (CRC polynomials with the
// +1 term and parity both guarantee this).
class SingleBitErrorSweep : public ::testing::TestWithParam<CrcKind> {};

TEST_P(SingleBitErrorSweep, AllSingleBitFlipsDetected) {
  const CrcKind kind = GetParam();
  Rng rng(23);
  BitVector v(66);
  for (std::size_t i = 0; i < 66; ++i) v.set(i, rng.chance(0.5));
  const auto sum = crc_compute(kind, v);
  for (std::size_t i = 0; i < v.width(); ++i) {
    BitVector bad = v;
    bad.set(i, !bad.get(i));
    EXPECT_FALSE(crc_check(kind, bad, sum)) << "undetected flip at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SingleBitErrorSweep,
                         ::testing::Values(CrcKind::kParity, CrcKind::kCrc8,
                                           CrcKind::kCrc16));

// CRC8/16 detect all burst errors shorter than the CRC width.
class BurstErrorSweep : public ::testing::TestWithParam<CrcKind> {};

TEST_P(BurstErrorSweep, ShortBurstsDetected) {
  const CrcKind kind = GetParam();
  const std::size_t crc_bits = crc_width(kind);
  Rng rng(31);
  BitVector v(80);
  for (std::size_t i = 0; i < 80; ++i) v.set(i, rng.chance(0.5));
  const auto sum = crc_compute(kind, v);
  for (std::size_t burst = 2; burst <= crc_bits; ++burst) {
    for (std::size_t pos = 0; pos + burst <= v.width(); pos += 5) {
      BitVector bad = v;
      // Burst: first and last bit flipped, middle random.
      bad.set(pos, !bad.get(pos));
      bad.set(pos + burst - 1, !bad.get(pos + burst - 1));
      EXPECT_FALSE(crc_check(kind, bad, sum))
          << "undetected burst len " << burst << " at " << pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, BurstErrorSweep,
                         ::testing::Values(CrcKind::kCrc8, CrcKind::kCrc16));

// flit_seal/flit_verify stream the checksum over the payload's storage
// words plus the 10 control bits; flit_protected_bits is the assembled
// reference view. The two must agree for every code at every flit width
// the sweeps use, across word boundaries and partial bytes.
TEST(Crc, FlitSealMatchesProtectedBitsReference) {
  Rng rng(91);
  for (const auto kind : {CrcKind::kNone, CrcKind::kParity, CrcKind::kCrc8,
                          CrcKind::kCrc16}) {
    for (const std::size_t width : {16, 17, 60, 64, 120, 128, 200}) {
      for (int trial = 0; trial < 64; ++trial) {
        Flit flit(BitVector(width), rng.chance(0.5), rng.chance(0.5));
        for (std::size_t pos = 0; pos < width; pos += 64) {
          const std::size_t n = std::min<std::size_t>(64, width - pos);
          flit.payload.deposit(pos, n, rng.next_u64());
        }
        flit.seqno = static_cast<std::uint8_t>(rng.next_below(256));
        const std::uint16_t want =
            crc_compute(kind, flit_protected_bits(flit));
        flit_seal(flit, kind);
        ASSERT_EQ(flit.checksum, want)
            << crc_name(kind) << " width=" << width << " trial=" << trial;
        EXPECT_TRUE(flit_verify(flit, kind));
        if (kind != CrcKind::kNone) {
          // Any single flipped protected bit is caught (head here).
          flit.head = !flit.head;
          EXPECT_FALSE(flit_verify(flit, kind)) << crc_name(kind);
        }
      }
    }
  }
}

TEST(Crc, RandomErrorsMostlyDetected) {
  // Sanity: CRC8 misses at most ~1/2^8 of random corruptions.
  Rng rng(41);
  int undetected = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    BitVector v(64, rng.next_u64());
    const auto sum = crc_compute(CrcKind::kCrc8, v);
    BitVector bad(64, rng.next_u64());
    if (bad == v) continue;
    if (crc_check(CrcKind::kCrc8, bad, sum)) ++undetected;
  }
  EXPECT_LT(undetected, trials / 100);
}

}  // namespace
}  // namespace xpl
