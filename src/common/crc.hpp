// Error-detection codes used by the xpipes lite link-level protocol.
//
// The paper's switch implements ACK/nACK error control for pipelined,
// unreliable links: each flit carries a checksum, the receiving switch
// verifies it and answers ACK or nACK. The library offers three codes
// with different cost/coverage tradeoffs; the synthesis model charges
// gates per code accordingly.
#pragma once

#include <cstdint>

#include "src/common/bits.hpp"

namespace xpl {

/// Checksum algorithm attached to every flit on a link.
enum class CrcKind : std::uint8_t {
  kNone,    ///< no checking (reliable links); 0 check bits
  kParity,  ///< single even-parity bit; detects all 1-bit errors
  kCrc8,    ///< CRC-8/ATM, polynomial x^8+x^2+x+1 (0x07)
  kCrc16,   ///< CRC-16/CCITT, polynomial 0x1021
};

/// Number of check bits appended per flit for `kind`.
std::size_t crc_width(CrcKind kind);

/// Computes the checksum of `bits` under `kind`. The result fits in
/// crc_width(kind) bits (0 for kNone).
std::uint16_t crc_compute(CrcKind kind, const BitVector& bits);

/// Checksum of a message held in storage words: the low `nbits` bits of
/// `words` (little-endian word order, LSB first — BitVector's layout),
/// then the low `tail_bits` (<= 56) bits of `tail`. Streams the words
/// without assembling the message; crc_compute(kind, bits) is this call
/// on bits' words with no tail.
std::uint16_t crc_compute(CrcKind kind, const std::uint64_t* words,
                          std::size_t nbits, std::uint64_t tail,
                          std::size_t tail_bits);

/// True if `checksum` matches the recomputed checksum of `bits`.
bool crc_check(CrcKind kind, const BitVector& bits, std::uint16_t checksum);

/// Human-readable name ("parity", "crc8", ...).
const char* crc_name(CrcKind kind);

}  // namespace xpl
