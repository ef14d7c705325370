#include "src/packet/flit.hpp"

#include <sstream>

namespace xpl {

std::string Flit::to_string() const {
  std::ostringstream os;
  os << (head ? "H" : "-") << (tail ? "T" : "-") << " seq=" << int(seqno);
  if (vc != 0) os << " vc=" << int(vc);
  os << " payload=" << payload.to_string();
  return os.str();
}

BitVector flit_protected_bits(const Flit& flit) {
  BitVector bits(flit.payload.width() + 2 + 8);
  bits.deposit_vector(0, flit.payload);
  bits.set(flit.payload.width(), flit.head);
  bits.set(flit.payload.width() + 1, flit.tail);
  bits.deposit(flit.payload.width() + 2, 8, flit.seqno);
  return bits;
}

namespace {

// flit_protected_bits(flit) streamed in place: the payload's words, then
// head, tail and the 8 seqno bits as a 10-bit tail.
std::uint16_t flit_crc(const Flit& flit, CrcKind kind) {
  const std::uint64_t control = (flit.head ? 1u : 0u) |
                                (flit.tail ? 2u : 0u) |
                                (std::uint64_t{flit.seqno} << 2);
  return crc_compute(kind, flit.payload.word_data(), flit.payload.width(),
                     control, 10);
}

}  // namespace

void flit_seal(Flit& flit, CrcKind kind) {
  flit.checksum = flit_crc(flit, kind);
}

bool flit_verify(const Flit& flit, CrcKind kind) {
  return flit_crc(flit, kind) == flit.checksum;
}

std::size_t flit_wire_width(std::size_t flit_width, std::size_t seq_bits,
                            CrcKind kind, std::size_t vc_bits) {
  return flit_width + 2 + vc_bits + seq_bits + crc_width(kind);
}

}  // namespace xpl
