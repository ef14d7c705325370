// Link-protocol seam: one selector, two flow-control protocols.
//
// Every network port (switch input/output, NI network port) embeds one
// sender and one receiver endpoint. Historically these were hard-wired to
// the paper's ACK/nACK go-back-N protocol; LinkSender / LinkReceiver make
// the protocol a per-network architecture axis instead:
//
//   * FlowControl::kAckNack — goback_n.hpp: CRC + sequence numbers,
//     nACK-driven retransmission; tolerates unreliable links, pays
//     retransmission buffers and nACK thrash under back-pressure.
//   * FlowControl::kCredit — credit.hpp: counted buffer slots, sender
//     stalls at zero credits; requires reliable links (the network
//     assembly enforces bit_error_rate == 0), never retransmits.
//
// Both protocols share LinkWires and ProtocolConfig (`window` = go-back-N
// window or credit count per lane, sized to the link round trip either
// way), so a port's endpoints are interchangeable, and both are
// lane-generic: ProtocolConfig::vcs virtual channels share the physical
// wire pair with per-lane buffering, sequencing and credits (see
// goback_n.hpp / credit.hpp). Dispatch is one predictable branch on the
// enum per call — no virtual functions on the hot path, matching the
// devirtualized kernel design (DESIGN.md §2).
//
// Flits cross the seam by reference, not by value. Senders take
// accept(Flit&&): the owner moves its queued flit in, one move per
// hand-off. Receivers' begin_cycle returns `const Flit*` — nullptr when
// nothing is handed over — pointing into endpoint-owned storage (the
// forward wire's committed flit for go-back-N, the credited slot just
// popped for credits). The pointer is valid until the owner's tick ends;
// an owner that keeps the flit copies it before returning.
#pragma once

#include <cstdint>
#include <string>

#include "src/link/credit.hpp"
#include "src/link/goback_n.hpp"
#include "src/link/link.hpp"
#include "src/packet/flit.hpp"

namespace xpl::link {

enum class FlowControl : std::uint8_t { kAckNack, kCredit };

/// "ack_nack" | "credit" — the sweep-axis / spec-file token.
const char* flow_control_name(FlowControl flow);

/// Inverse of flow_control_name; throws xpl::Error on unknown tokens.
FlowControl parse_flow_control(const std::string& name);

/// Protocol-dispatching sender endpoint. The owner's call protocol is
/// identical for both flavours: begin_cycle, can_accept/accept at most
/// once, end_cycle.
class LinkSender {
 public:
  LinkSender() = default;
  LinkSender(FlowControl flow, LinkWires wires,
             const ProtocolConfig& config) {
    flow_ = flow;
    if (flow == FlowControl::kAckNack) {
      ack_ = GoBackNSender(wires, config);
    } else {
      credit_ = CreditSender(wires, config);
    }
  }

  /// `now` is the current cycle (credit mode counts stalls across sleep
  /// gaps with it; go-back-N ignores it).
  void begin_cycle(std::uint64_t now) {
    flow_ == FlowControl::kAckNack ? ack_.begin_cycle()
                                   : credit_.begin_cycle(now);
  }
  /// Room on lane `vc` (the accepted flit's vc field picks the lane).
  bool can_accept(std::size_t vc = 0) const {
    return flow_ == FlowControl::kAckNack ? ack_.can_accept(vc)
                                          : credit_.can_accept(vc);
  }
  void accept(Flit&& flit) {
    flow_ == FlowControl::kAckNack ? ack_.accept(std::move(flit))
                                   : credit_.accept(std::move(flit));
  }
  void end_cycle() {
    flow_ == FlowControl::kAckNack ? ack_.end_cycle() : credit_.end_cycle();
  }

  std::size_t in_flight() const {
    return flow_ == FlowControl::kAckNack ? ack_.in_flight()
                                          : credit_.in_flight();
  }
  bool idle() const {
    return flow_ == FlowControl::kAckNack ? ack_.idle() : credit_.idle();
  }
  /// Wakes `owner` on reverse-wire (ACK/credit) arrivals.
  void watch(sim::Module& owner) {
    flow_ == FlowControl::kAckNack ? ack_.watch(owner)
                                   : credit_.watch(owner);
  }
  /// Endpoint part of the owner's sleep claim.
  bool gate_idle() const {
    return flow_ == FlowControl::kAckNack ? ack_.gate_idle()
                                          : credit_.gate_idle();
  }
  std::uint64_t flits_sent() const {
    return flow_ == FlowControl::kAckNack ? ack_.flits_sent()
                                          : credit_.flits_sent();
  }
  /// Go-back-N only; 0 in credit mode (credits never retransmit).
  std::uint64_t retransmissions() const {
    return flow_ == FlowControl::kAckNack ? ack_.retransmissions() : 0;
  }
  /// Credit only; 0 in ACK/nACK mode (back-pressure shows up as
  /// flow-control retransmissions instead). See CreditSender.
  std::uint64_t credit_stalls(std::uint64_t now) const {
    return flow_ == FlowControl::kAckNack ? 0 : credit_.credit_stalls(now);
  }

 private:
  FlowControl flow_ = FlowControl::kAckNack;
  GoBackNSender ack_;
  CreditSender credit_;
};

/// Protocol-dispatching receiver endpoint.
class LinkReceiver {
 public:
  LinkReceiver() = default;
  LinkReceiver(FlowControl flow, LinkWires wires,
               const ProtocolConfig& config) {
    flow_ = flow;
    if (flow == FlowControl::kAckNack) {
      ack_ = GoBackNReceiver(wires, config);
    } else {
      credit_ = CreditReceiver(wires, config);
    }
  }

  /// Bit vc of `can_take_mask` = owner has space for lane vc this cycle
  /// (a bool converts to the right mask for single-lane owners).
  /// Returns the handed-over flit or nullptr (pointer contract above).
  const Flit* begin_cycle(std::uint32_t can_take_mask) {
    return flow_ == FlowControl::kAckNack
               ? ack_.begin_cycle(can_take_mask)
               : credit_.begin_cycle(can_take_mask);
  }
  void end_cycle() {
    flow_ == FlowControl::kAckNack ? ack_.end_cycle() : credit_.end_cycle();
  }

  /// Wakes `owner` on forward-wire flit arrivals.
  void watch(sim::Module& owner) {
    flow_ == FlowControl::kAckNack ? ack_.watch(owner)
                                   : credit_.watch(owner);
  }
  /// Endpoint part of the owner's sleep claim.
  bool gate_idle() const {
    return flow_ == FlowControl::kAckNack ? ack_.gate_idle()
                                          : credit_.gate_idle();
  }

  std::uint64_t flits_accepted() const {
    return flow_ == FlowControl::kAckNack ? ack_.flits_accepted()
                                          : credit_.flits_accepted();
  }
  /// Go-back-N only; structurally impossible in credit mode.
  std::uint64_t crc_rejections() const {
    return flow_ == FlowControl::kAckNack ? ack_.crc_rejections() : 0;
  }
  std::uint64_t flow_rejections() const {
    return flow_ == FlowControl::kAckNack ? ack_.flow_rejections() : 0;
  }

 private:
  FlowControl flow_ = FlowControl::kAckNack;
  GoBackNReceiver ack_;
  CreditReceiver credit_;
};

}  // namespace xpl::link
