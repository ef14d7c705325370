// ACK/nACK go-back-N link-level flow & error control.
//
// This is the paper's switch-to-switch protocol: every flit carries a
// sequence number and a CRC; the receiving hop checks both and answers ACK
// (advance) or nACK (go back and resend). The same nACK path doubles as
// flow control — a receiver with no buffer space nACKs, so the sender
// retries later. Senders keep transmitted flits in a retransmission buffer
// until acknowledged, sized to cover the link round trip so a clean link
// sustains one flit per cycle.
//
// Every endpoint is lane-generic: a link carries `vcs` virtual channels
// over one physical wire pair, each lane with its own sequence space,
// retransmission buffer and ACK stream (flits and ACK beats carry the
// lane tag). One flit crosses the wire per cycle regardless of lane
// count; the sender round-robins among lanes with pending work. With
// vcs == 1 (the default) all of this collapses to the seed's single-lane
// protocol, operation for operation.
//
// GoBackNSender and GoBackNReceiver are building blocks *embedded* in the
// switch and NI modules (they are not kernel modules themselves); the
// owner calls begin_cycle / end_cycle from its tick().
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/crc.hpp"
#include "src/common/error.hpp"
#include "src/common/ring.hpp"
#include "src/link/link.hpp"
#include "src/packet/flit.hpp"

namespace xpl::link {

/// Upper bound on lanes per link (the lane tag and the receiver drain
/// masks are sized for it).
inline constexpr std::size_t kMaxVcs = 8;

/// Shared parameters of one link's protocol endpoints.
struct ProtocolConfig {
  std::size_t window = 8;              ///< max unacknowledged flits per lane
  std::size_t seq_bits = 5;            ///< sequence number width (per lane)
  CrcKind crc = CrcKind::kCrc8;        ///< per-flit check code
  std::size_t vcs = 1;                 ///< virtual channels (lanes)

  /// Sizes window and sequence space to keep an N-stage pipelined link
  /// fully busy: round trip is 2*(stages+1) kernel hops plus endpoint
  /// processing.
  static ProtocolConfig for_link(std::size_t stages,
                                 CrcKind crc = CrcKind::kCrc8);

  void validate() const;
};

/// Sender endpoint: owns the per-lane retransmission buffers.
class GoBackNSender {
 public:
  GoBackNSender() = default;
  GoBackNSender(LinkWires wires, const ProtocolConfig& config);

  /// Processes incoming ACK/nACK. Call first in the owner's tick().
  void begin_cycle() {
    XPL_ASSERT(wires_.rev != nullptr);
    const AckBeat& ack = wires_.rev->read();
    if (ack.valid) process_ack(ack);
  }

  /// True if a new flit can be queued on lane `vc` this cycle (that
  /// lane's window has room).
  bool can_accept(std::size_t vc = 0) const {
    XPL_ASSERT(vc < lanes_.size());
    return lanes_[vc].buffer.size() < config_.window;
  }

  /// Queues `flit` for (re)transmission on lane flit.vc; assigns its
  /// sequence number. Requires can_accept(flit.vc).
  void accept(Flit&& flit);

  /// Transmits at most one flit (lanes served round-robin) and drives the
  /// wire. Call last in tick().
  void end_cycle() {
    XPL_ASSERT(wires_.fwd != nullptr);
    if (fwd_dirty_ || any_pending()) transmit();
  }

  /// In-flight (sent or queued, unacknowledged) flits over all lanes.
  std::size_t in_flight() const;
  bool idle() const { return in_flight() == 0; }

  /// Wakes `owner` whenever an ACK/nACK arrives on the reverse wire.
  void watch(sim::Module& owner) { wires_.rev->watch(owner); }

  /// Endpoint part of the owner's sleep claim: nothing left to
  /// (re)transmit on any lane, the forward wire already driven idle, and
  /// no reverse beat arriving. Flits that were sent but not yet ACKed do
  /// NOT keep the endpoint awake — the ACK (or nACK) arrival wakes it.
  bool gate_idle() const;

  std::uint64_t flits_sent() const { return flits_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  /// begin_cycle's work when an ACK/nACK beat is on the reverse wire.
  void process_ack(const AckBeat& ack);
  /// end_cycle's work when a lane has something to (re)transmit or the
  /// forward wire still owes its trailing idle write.
  void transmit();
  /// True if some lane has an entry awaiting (re)transmission; entries
  /// below a lane's resend_idx merely await an ACK, which will wake the
  /// owner through the reverse wire.
  bool any_pending() const {
    for (const Lane& lane : lanes_) {
      if (lane.resend_idx < lane.buffer.size()) return true;
    }
    return false;
  }

  LinkWires wires_{};
  ProtocolConfig config_{};
  std::uint8_t seq_mask_ = 0;
  bool fwd_dirty_ = false;  ///< forward wire still holds a valid beat

  struct Entry {
    Flit flit;
    bool sent = false;  ///< transmitted at least once (retx accounting)
  };
  struct Lane {
    Ring<Entry> buffer;          ///< unacked flits, oldest first (<= window)
    std::size_t resend_idx = 0;  ///< next buffer index to transmit
    std::uint8_t next_seq = 0;   ///< seqno for the next accepted flit
  };
  std::vector<Lane> lanes_;
  std::size_t next_lane_ = 0;  ///< transmit rotation over lanes

  std::uint64_t flits_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
};

/// Receiver endpoint: verifies CRC and per-lane sequence, produces
/// ACK/nACK tagged with the lane.
class GoBackNReceiver {
 public:
  GoBackNReceiver() = default;
  GoBackNReceiver(LinkWires wires, const ProtocolConfig& config);

  /// Examines the arriving flit. Bit vc of `can_take_mask` tells the
  /// receiver whether the owner has buffer space for lane vc this cycle;
  /// without space the flit is nACKed (flow control). Returns the flit
  /// when it is accepted in order and intact — the forward wire's
  /// committed flit, valid until the owner's tick ends (see flow.hpp) —
  /// else nullptr. Call first in the owner's tick(). (A bool converts to
  /// the right mask for single-lane owners.)
  const Flit* begin_cycle(std::uint32_t can_take_mask) {
    XPL_ASSERT(wires_.fwd != nullptr);
    pending_ack_ = AckBeat{};
    const FlitBeat& beat = wires_.fwd->read();
    if (!beat.valid) return nullptr;
    return receive(beat.flit, can_take_mask);
  }

  /// Drives the ACK wire. Call last in the owner's tick().
  void end_cycle() {
    XPL_ASSERT(wires_.rev != nullptr);
    // Write-on-change: a valid ACK/nACK is always driven; the idle beat
    // is driven once after the last valid one (then the wire already
    // holds it).
    if (pending_ack_.valid) {
      wires_.rev->write(pending_ack_);
      rev_dirty_ = true;
    } else if (rev_dirty_) {
      wires_.rev->write(pending_ack_);
      rev_dirty_ = false;
    }
  }

  /// Wakes `owner` whenever a flit arrives on the forward wire.
  void watch(sim::Module& owner) { wires_.fwd->watch(owner); }

  /// Endpoint part of the owner's sleep claim: no flit arriving
  /// and the ACK wire already driven idle.
  bool gate_idle() const {
    return !rev_dirty_ && !wires_.fwd->read().valid;
  }

  std::uint64_t flits_accepted() const { return flits_accepted_; }
  std::uint64_t crc_rejections() const { return crc_rejections_; }
  std::uint64_t flow_rejections() const { return flow_rejections_; }

 private:
  /// begin_cycle's work when a flit is on the forward wire.
  const Flit* receive(const Flit& flit, std::uint32_t can_take_mask);

  LinkWires wires_{};
  ProtocolConfig config_{};
  std::uint8_t seq_mask_ = 0;
  bool rev_dirty_ = false;  ///< ACK wire still holds a valid beat

  std::vector<std::uint8_t> expected_seq_;  ///< per lane
  AckBeat pending_ack_{};

  std::uint64_t flits_accepted_ = 0;
  std::uint64_t crc_rejections_ = 0;
  std::uint64_t flow_rejections_ = 0;
};

}  // namespace xpl::link
