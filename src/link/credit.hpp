// Credit-based link-level flow control over reliable links.
//
// The classic alternative to the paper's ACK/nACK go-back-N protocol
// (goback_n.hpp): the sender holds a credit counter initialized to the
// receiver's buffer depth, spends one credit per transmitted flit and
// stalls at zero; the receiver returns one credit on the reverse channel
// for every flit its owner drains. No flit is ever sent without a
// guaranteed buffer slot, so nothing is retransmitted and no CRC is
// checked — which is exactly why credit flow control *requires reliable
// links* (bit_error_rate == 0, enforced at network assembly). The
// asymmetry is the paper's thesis: ACK/nACK buys unreliable-link
// tolerance with retransmission buffers and nACK thrash at saturation;
// credits buy a leaner hot path but no error story. See DESIGN.md.
//
// Like the go-back-N endpoints, both ends are lane-generic: each of the
// link's `vcs` virtual channels has its own credit counter and its own
// credited buffer at the receiver, so one stalled lane parks only its own
// window while other lanes keep moving (the per-VC flow control that
// makes dateline deadlock avoidance sound). Flits and credit returns
// carry the lane tag; one flit crosses per cycle, its lane picked by the
// owner. vcs == 1 is the seed's single-lane protocol unchanged.
//
// CreditSender and CreditReceiver mirror the go-back-N endpoints' call
// shape exactly (begin_cycle / can_accept / accept / end_cycle on the
// sender, begin_cycle(can_take_mask) / end_cycle on the receiver) so the
// link-protocol seam (flow.hpp) can swap protocols per network. They
// share ProtocolConfig: `window` doubles as the per-lane credit count,
// sized by ProtocolConfig::for_link to cover the link round trip so a
// clean link sustains one flit per cycle in either protocol. The reverse
// channel reuses AckBeat wires: a valid beat means "one credit returned
// for lane `vc`" (ack/seqno are ignored).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/ring.hpp"
#include "src/link/goback_n.hpp"
#include "src/link/link.hpp"
#include "src/packet/flit.hpp"

namespace xpl::link {

/// Sender endpoint: stages one flit per cycle and spends a credit to
/// transmit it in the same cycle.
///
/// The owner protocol (flow.hpp) accepts at most one flit per tick and
/// end_cycle transmits it, so one staging slot is all the buffering the
/// sender needs: it is empty between ticks. Lane-scan questions are
/// answered from two counters kept in step with the lanes (starved_,
/// spent_); the per-tick fast paths below are inline and only an
/// arriving credit (collect) or a staged flit (transmit) leaves them.
///
/// The sender counts its own stalls across its owner's sleep. An owner
/// may sleep while a lane is starved (gate_idle ignores starvation), and
/// the cycles it sleeps through leave the sender frozen: each would have
/// counted one stall. The sender remembers its first un-ticked cycle, so
/// begin_cycle credits a closed gap and credit_stalls(now) an open one.
class CreditSender {
 public:
  CreditSender() = default;
  CreditSender(LinkWires wires, const ProtocolConfig& config);

  /// Collects returned credits from the reverse wire. Call first in the
  /// owner's tick() with the current cycle. Stalls of the cycles slept
  /// through since the last tick are credited first, against the frozen
  /// state those ticks would have seen.
  void begin_cycle(std::uint64_t now) {
    XPL_ASSERT(wires_.rev != nullptr);
    credit_stalls_ += gap_stalls(now);
    next_cycle_ = now + 1;
    const AckBeat& beat = wires_.rev->read();
    if (beat.valid) collect(beat.vc);
  }

  /// True if a new flit can be staged on lane `vc` this cycle: the slot
  /// is empty and the lane has a credit, so its outstanding flits stay
  /// within the window, mirroring the go-back-N sender's occupancy bound
  /// (a flow-control comparison measures protocol behaviour, not a
  /// doubled per-hop buffer).
  bool can_accept(std::size_t vc = 0) const {
    XPL_ASSERT(vc < credits_.size());
    return !staged_ && credits_[vc] > 0;
  }

  /// Stages `flit` for transmission on lane flit.vc. Requires
  /// can_accept(flit.vc), in particular an empty slot. Reliable link: no
  /// seqno, no CRC seal — the receiver never checks.
  void accept(Flit&& flit) {
    XPL_ASSERT(!staged_);
    XPL_ASSERT(can_accept(flit.vc));
    slot_ = std::move(flit);
    staged_ = true;
  }

  /// Transmits the staged flit, if any, and drives the wire. Call last
  /// in the owner's tick().
  void end_cycle() {
    XPL_ASSERT(wires_.fwd != nullptr);
    if (staged_) {
      transmit();
      return;
    }
    // Credit starvation: nothing staged, and at least one lane's
    // entire window is parked at the receiver awaiting drain.
    if (starved_ != 0) ++credit_stalls_;
    // Write-on-change: drive the wire idle once after the last valid beat.
    if (fwd_dirty_) {
      wires_.fwd->write(FlitBeat{});
      fwd_dirty_ = false;
    }
  }

  /// The staged flit plus flits whose credit has not returned yet (in
  /// flight on the link or buffered at the receiver), over all lanes.
  std::size_t in_flight() const { return (staged_ ? 1 : 0) + spent_; }
  bool idle() const { return in_flight() == 0; }

  /// Wakes `owner` whenever a credit returns on the reverse wire.
  void watch(sim::Module& owner) { wires_.rev->watch(owner); }

  /// Endpoint part of the owner's sleep claim: nothing staged, the
  /// forward wire already driven idle, and no credit arriving. A starved
  /// lane does not keep the owner awake: the stalls it would count are
  /// credited on the next begin_cycle.
  bool gate_idle() const {
    return !staged_ && !fwd_dirty_ && !wires_.rev->read().valid;
  }

  std::uint64_t flits_sent() const { return flits_sent_; }
  /// Credit-starvation cycles: cycles in which nothing was transmitted
  /// while some lane sat at zero credits, i.e. with its entire window
  /// parked at the receiver awaiting drain — the credit protocol's
  /// back-pressure signal (the counterpart of go-back-N's flow-control
  /// retransmissions). `now` is the current cycle: the count includes the
  /// stalls of a sleep gap still open, so it matches per-cycle ticking at
  /// any cycle boundary.
  std::uint64_t credit_stalls(std::uint64_t now) const {
    return credit_stalls_ + gap_stalls(now);
  }
  std::size_t credits(std::size_t vc = 0) const { return credits_.at(vc); }

 private:
  /// Stalls of the un-ticked cycles before `now`: end_cycle's rule
  /// (nothing staged, some lane starved) held on each, since the slot is
  /// empty between ticks and nothing changes while the owner sleeps.
  std::uint64_t gap_stalls(std::uint64_t now) const {
    return now > next_cycle_ && starved_ != 0 ? now - next_cycle_ : 0;
  }
  /// begin_cycle's work when a credit for lane `vc` arrives.
  void collect(std::uint8_t vc);
  /// end_cycle's work when a flit is staged.
  void transmit();

  LinkWires wires_{};
  ProtocolConfig config_{};
  /// Per lane: free receiver slots (starts at window).
  std::vector<std::size_t> credits_;
  Flit slot_;                ///< the staged flit (valid while staged_)
  bool staged_ = false;
  bool fwd_dirty_ = false;   ///< forward wire still holds a valid beat
  std::size_t starved_ = 0;  ///< lanes at zero credits
  std::size_t spent_ = 0;    ///< sum of (window - credits): unreturned

  std::uint64_t flits_sent_ = 0;
  std::uint64_t credit_stalls_ = 0;  ///< through the last tick
  std::uint64_t next_cycle_ = 0;     ///< first cycle not yet ticked
};

/// Receiver endpoint: owns the per-lane credited buffers and returns
/// credits as its owner drains flits.
class CreditReceiver {
 public:
  CreditReceiver() = default;
  CreditReceiver(LinkWires wires, const ProtocolConfig& config);

  /// Latches an arriving flit into its lane's credited buffer (space is
  /// guaranteed by the sender's credit accounting) and hands the owner at
  /// most one buffered flit from a lane whose bit is set in
  /// `can_take_mask` (lanes drained round-robin) — scheduling one credit
  /// return for that lane. Call first in the owner's tick(). (A bool
  /// converts to the right mask for single-lane owners.) The returned
  /// flit is the lane slot just popped: it keeps its value until the
  /// lane's next push, i.e. at least until the owner's tick ends (see
  /// flow.hpp). nullptr when nothing is handed over.
  const Flit* begin_cycle(std::uint32_t can_take_mask) {
    XPL_ASSERT(wires_.fwd != nullptr);
    const FlitBeat& beat = wires_.fwd->read();
    if (!beat.valid && buffered_ == 0) return nullptr;
    return receive(beat, can_take_mask);
  }

  /// Drives the credit-return wire. Call last in the owner's tick().
  void end_cycle() {
    XPL_ASSERT(wires_.rev != nullptr);
    // Write-on-change: a credit return is always driven; the idle beat is
    // driven once after the last return (then the wire already holds it).
    if (pending_credit_ || rev_dirty_) {
      wires_.rev->write(
          AckBeat{pending_credit_, /*ack=*/true, 0, pending_credit_vc_});
      rev_dirty_ = pending_credit_;
      pending_credit_ = false;
    }
  }

  /// Wakes `owner` whenever a flit arrives on the forward wire.
  void watch(sim::Module& owner) { wires_.fwd->watch(owner); }

  /// Endpoint part of the owner's sleep claim: no flit arriving,
  /// nothing buffered awaiting the owner's drain, and the credit wire
  /// already driven idle.
  bool gate_idle() const {
    return !rev_dirty_ && buffered_ == 0 && !wires_.fwd->read().valid;
  }

  std::uint64_t flits_accepted() const { return flits_accepted_; }
  /// Flits held in the credited buffers over all lanes.
  std::size_t buffered() const { return buffered_; }

 private:
  /// begin_cycle's work when a beat arrives or a lane holds flits.
  const Flit* receive(const FlitBeat& beat, std::uint32_t can_take_mask);

  LinkWires wires_{};
  ProtocolConfig config_{};
  std::vector<Ring<Flit>> lanes_;  ///< credited slots (capacity = window)
  std::size_t drain_next_ = 0;     ///< drain rotation over lanes
  std::size_t buffered_ = 0;       ///< sum of lane sizes
  bool pending_credit_ = false;    ///< return one credit at end_cycle
  std::uint8_t pending_credit_vc_ = 0;
  bool rev_dirty_ = false;  ///< credit wire still holds a valid beat

  std::uint64_t flits_accepted_ = 0;
};

}  // namespace xpl::link
