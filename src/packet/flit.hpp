// Flit: the unit of link traversal and flow control.
//
// xpipes lite uses wormhole switching: a packet is a head flit (carrying the
// header register contents, possibly spread over several flits when the flit
// width is small), zero or more body flits (payload register contents), and
// a tail marker releasing the wormhole path. On the wire each flit carries:
//
//   payload (flit_width bits) | head | tail | vc | link seqno | CRC
//
// The seqno and CRC belong to the link-level ACK/nACK retransmission
// protocol; switches regenerate them hop by hop. The vc field is the
// virtual-channel (lane) tag: it selects which of the link's lanes the
// flit travels on, so per-lane buffers and per-lane flow control can
// interleave packets on one physical wire. With one lane (vcs == 1) the
// tag is zero bits wide on the wire and every struct field below is 0 —
// the single-lane seed microarchitecture falls out unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/common/bits.hpp"
#include "src/common/crc.hpp"
#include "src/sim/kernel.hpp"

namespace xpl {

/// One flit as it travels a link.
struct Flit {
  BitVector payload;          ///< flit_width data bits
  bool head = false;          ///< first flit of a packet
  bool tail = false;          ///< last flit of a packet
  std::uint8_t vc = 0;        ///< virtual-channel (lane) tag
  std::uint8_t seqno = 0;     ///< per-lane go-back-N sequence number
  std::uint16_t checksum = 0; ///< CRC over payload+head+tail+seqno

  Flit() = default;
  Flit(BitVector p, bool h, bool t) : payload(std::move(p)), head(h), tail(t) {}

  std::string to_string() const;
};

/// Bits protected by the flit checksum, in a canonical order: payload,
/// head, tail, the 8 seqno bits. Both the sender (to generate) and
/// receiver (to verify) checksum this exact view — flit_seal/flit_verify
/// stream it from the flit's fields without building it; this function
/// is their reference — so a corruption anywhere in the protected fields
/// is detected with the code's guarantees. The vc tag is not part of the
/// view: like the reverse ACK wires it is modelled reliable (error
/// injection never touches it), which keeps the protected word — and
/// every CRC value — identical to the single-lane wire format.
BitVector flit_protected_bits(const Flit& flit);

/// Computes and installs the checksum for `kind`.
void flit_seal(Flit& flit, CrcKind kind);

/// True if the stored checksum matches the payload under `kind`.
bool flit_verify(const Flit& flit, CrcKind kind);

/// Physical wire width of one flit beat for synthesis accounting:
/// payload + 2 control bits + vc bits + seqno bits + CRC bits. `vc_bits`
/// is 0 for a single-lane link (the seed wire format).
std::size_t flit_wire_width(std::size_t flit_width, std::size_t seq_bits,
                            CrcKind kind, std::size_t vc_bits = 0);

/// Valid/flit pair carried on a forward link signal.
struct FlitBeat {
  bool valid = false;
  Flit flit;
};

/// ACK/nACK beat carried on a reverse link signal. `ack == false` means
/// nACK: the receiver asks the sender to go back to `seqno`. `vc` names
/// the lane the beat belongs to (credit mode: the lane whose slot was
/// freed); like the rest of the reverse channel it is modelled reliable.
struct AckBeat {
  bool valid = false;
  bool ack = true;
  std::uint8_t seqno = 0;
  std::uint8_t vc = 0;
};

// Signal-digest support (sim::Kernel::digest, the oracle of the
// kernel-equivalence tests). Invalid beats hash as a bare 0 so stale
// payload fields left behind by moves can never alias real state.
inline void hash_append(sim::Digest& d, const BitVector& v) {
  d.mix(v.width());
  for (std::size_t pos = 0; pos < v.width(); pos += 64) {
    d.mix(v.slice(pos, std::min<std::size_t>(64, v.width() - pos)));
  }
}

inline void hash_append(sim::Digest& d, const Flit& f) {
  hash_append(d, f.payload);
  d.mix((f.head ? 1u : 0u) | (f.tail ? 2u : 0u));
  d.mix(f.vc);
  d.mix(f.seqno);
  d.mix(f.checksum);
}

inline void hash_append(sim::Digest& d, const FlitBeat& b) {
  d.mix(b.valid ? 1u : 0u);
  if (b.valid) hash_append(d, b.flit);
}

inline void hash_append(sim::Digest& d, const AckBeat& a) {
  d.mix(a.valid ? 1u : 0u);
  if (a.valid) {
    d.mix((a.ack ? 1u : 0u));
    d.mix(a.seqno);
    d.mix(a.vc);
  }
}

}  // namespace xpl
