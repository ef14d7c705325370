#include "src/common/crc.hpp"

#include <array>
#include <bit>

namespace xpl {

namespace {

// Bitwise CRC step: LSB-first bit order over the message, MSB-first shift
// register, zero initial value. This serial form exactly matches the LFSR
// the synthesis model charges gates for; it remains the reference (and the
// tail path for the last <8 bits) while whole bytes go through the tables
// below.
template <typename Reg>
Reg crc_serial_bit(Reg reg, bool in, Reg poly, Reg top, Reg mask) {
  const bool msb = (reg & top) != 0;
  reg = static_cast<Reg>((reg << 1) & mask);
  if (in != msb) reg = static_cast<Reg>(reg ^ poly);
  return reg;
}

template <typename Reg>
Reg crc_serial_byte(Reg reg, std::uint8_t byte, Reg poly, Reg top, Reg mask) {
  for (unsigned b = 0; b < 8; ++b) {
    reg = crc_serial_bit<Reg>(reg, (byte >> b) & 1u, poly, top, mask);
  }
  return reg;
}

// The per-bit update is linear over GF(2): reg' = L(reg) ^ in*poly. Eight
// steps therefore split as f(reg, byte) = f(reg, 0) ^ f(0, byte), so one
// 256-entry table per operand turns the serial loop into two lookups per
// message byte. Tables are built from the serial reference itself, so the
// two implementations cannot drift (crc_test cross-checks them anyway).
struct Crc8Tables {
  std::array<std::uint8_t, 256> reg;  ///< f(r, 0)
  std::array<std::uint8_t, 256> in;   ///< f(0, b)
};

struct Crc16Tables {
  std::array<std::uint16_t, 256> reg;  ///< f(r << 8, 0), r = top byte
  std::array<std::uint16_t, 256> in;   ///< f(0, b)
};

const Crc8Tables& crc8_tables() {
  static const Crc8Tables tables = [] {
    Crc8Tables t;
    for (unsigned v = 0; v < 256; ++v) {
      t.reg[v] = crc_serial_byte<std::uint8_t>(
          static_cast<std::uint8_t>(v), 0, 0x07, 0x80, 0xFF);
      t.in[v] = crc_serial_byte<std::uint8_t>(
          0, static_cast<std::uint8_t>(v), 0x07, 0x80, 0xFF);
    }
    return t;
  }();
  return tables;
}

const Crc16Tables& crc16_tables() {
  static const Crc16Tables tables = [] {
    Crc16Tables t;
    for (unsigned v = 0; v < 256; ++v) {
      t.reg[v] = crc_serial_byte<std::uint16_t>(
          static_cast<std::uint16_t>(v << 8), 0, 0x1021, 0x8000, 0xFFFF);
      t.in[v] = crc_serial_byte<std::uint16_t>(
          0, static_cast<std::uint8_t>(v), 0x1021, 0x8000, 0xFFFF);
    }
    return t;
  }();
  return tables;
}

/// Generic driver: whole message bytes through `step`, then the leftover
/// bits (< 8 of the words plus the tail, at most 63) bytewise and the
/// last < 8 through the serial reference. Message bytes never straddle
/// storage words (8 | 64), so each is one shift+mask off the word array.
template <typename Reg, typename Step>
Reg crc_stream(const std::uint64_t* words, std::size_t nbits,
               std::uint64_t tail, std::size_t tail_bits, Step step,
               Reg poly, Reg top, Reg mask) {
  const std::size_t nbytes = nbits / 8;
  Reg reg = 0;
  for (std::size_t i = 0; i < nbytes; ++i) {
    reg = step(reg, static_cast<std::uint8_t>(words[i / 8] >> ((i % 8) * 8)));
  }
  const std::size_t rem = nbits % 8;
  std::uint64_t rest = 0;
  if (rem != 0) {
    rest = (words[nbytes / 8] >> ((nbytes % 8) * 8)) &
           ((std::uint64_t{1} << rem) - 1);
  }
  rest |= tail << rem;
  std::size_t rest_bits = rem + tail_bits;
  for (; rest_bits >= 8; rest_bits -= 8, rest >>= 8) {
    reg = step(reg, static_cast<std::uint8_t>(rest));
  }
  for (; rest_bits > 0; --rest_bits, rest >>= 1) {
    reg = crc_serial_bit<Reg>(reg, (rest & 1u) != 0, poly, top, mask);
  }
  return reg;
}

bool parity_stream(const std::uint64_t* words, std::size_t nbits,
                   std::uint64_t tail) {
  std::uint64_t acc = tail;
  const std::size_t full = nbits / 64;
  for (std::size_t i = 0; i < full; ++i) acc ^= words[i];
  if (nbits % 64 != 0) {
    acc ^= words[full] & ((std::uint64_t{1} << (nbits % 64)) - 1);
  }
  return (std::popcount(acc) & 1) != 0;
}

}  // namespace

std::size_t crc_width(CrcKind kind) {
  switch (kind) {
    case CrcKind::kNone:
      return 0;
    case CrcKind::kParity:
      return 1;
    case CrcKind::kCrc8:
      return 8;
    case CrcKind::kCrc16:
      return 16;
  }
  return 0;
}

std::uint16_t crc_compute(CrcKind kind, const std::uint64_t* words,
                          std::size_t nbits, std::uint64_t tail,
                          std::size_t tail_bits) {
  XPL_ASSERT(tail_bits <= 56);
  tail &= (std::uint64_t{1} << tail_bits) - 1;
  switch (kind) {
    case CrcKind::kNone:
      return 0;
    case CrcKind::kParity:
      return parity_stream(words, nbits, tail) ? 1 : 0;
    case CrcKind::kCrc8: {
      const Crc8Tables& t = crc8_tables();
      return crc_stream<std::uint8_t>(
          words, nbits, tail, tail_bits,
          [&t](std::uint8_t reg, std::uint8_t byte) {
            return static_cast<std::uint8_t>(t.reg[reg] ^ t.in[byte]);
          },
          0x07, 0x80, 0xFF);
    }
    case CrcKind::kCrc16: {
      const Crc16Tables& t = crc16_tables();
      return crc_stream<std::uint16_t>(
          words, nbits, tail, tail_bits,
          [&t](std::uint16_t reg, std::uint8_t byte) {
            // f(reg, 0): the low byte shifts up, the top byte folds via
            // the table.
            return static_cast<std::uint16_t>(
                ((reg & 0xFF) << 8) ^ t.reg[reg >> 8] ^ t.in[byte]);
          },
          0x1021, 0x8000, 0xFFFF);
    }
  }
  return 0;
}

std::uint16_t crc_compute(CrcKind kind, const BitVector& bits) {
  return crc_compute(kind, bits.word_data(), bits.width(), 0, 0);
}

bool crc_check(CrcKind kind, const BitVector& bits, std::uint16_t checksum) {
  return crc_compute(kind, bits) == checksum;
}

const char* crc_name(CrcKind kind) {
  switch (kind) {
    case CrcKind::kNone:
      return "none";
    case CrcKind::kParity:
      return "parity";
    case CrcKind::kCrc8:
      return "crc8";
    case CrcKind::kCrc16:
      return "crc16";
  }
  return "?";
}

}  // namespace xpl
