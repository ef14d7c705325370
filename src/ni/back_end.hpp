// NI network back end, shared by the initiator and the target NI.
//
// An xpipes lite NI is an OCP front end plus a network back end. The back
// end is the same hardware on both sides: the packetizer that decomposes
// whole packets into flits, one go-back-N (or credit) sender and receiver
// on the network ports, and one reassembler per lane. Only the front ends
// differ — the initiator turns OCP requests into request packets and
// response packets into OCP responses, the target the reverse — so each
// NI owns one BackEnd and drives it from its tick() in its own step order.
//
// Lanes: a packet rides the lane of its OCP thread (thread_id % vcs).
// Threads are the protocol's ordering domain, so same-thread packets stay
// FIFO on one lane while independent threads spread over the lanes;
// arriving flits are drained from every lane. The lane count is
// protocol.vcs (vcs == 1: always lane 0, the seed behaviour).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ring.hpp"
#include "src/link/flow.hpp"
#include "src/ocp/ocp.hpp"
#include "src/packet/packetizer.hpp"
#include "src/sim/kernel.hpp"

namespace xpl::ni {

/// The network-port half of an NI's configuration; InitiatorConfig and
/// TargetConfig add their front-end fields to it.
struct PortConfig {
  PacketFormat format{};
  std::uint32_t node_id = 0;
  link::FlowControl flow = link::FlowControl::kAckNack;
  link::ProtocolConfig protocol{};  ///< network ports; vcs = lane count

  /// The checks both NIs share; `who` prefixes the error message.
  void validate(const std::string& who) const;
};

class BackEnd {
 public:
  BackEnd(const PortConfig& config, const link::LinkWires& net_out,
          const link::LinkWires& net_in);

  /// Wakes `owner` on ACK/credit returns and on arriving flits.
  void watch(sim::Module& owner);

  /// Sender half of the cycle start; call before transmit().
  void begin_cycle(std::uint64_t now) { tx_.begin_cycle(now); }
  void end_cycle() {
    tx_.end_cycle();
    rx_.end_cycle();
  }

  /// Hands at most one queued flit to the sender, lane window permitting.
  void transmit();

  /// Packetizes `packet` onto the outbound queue, on its thread's lane.
  void send(Packet&& packet);

  /// Receiver half of the cycle: takes at most one flit from any lane
  /// when `can_take` (the owner's shared queue gates every lane alike)
  /// and returns the packet it completes, if any.
  std::optional<Packet> receive(bool can_take);

  bool outbound_empty() const { return flit_out_.empty(); }
  /// Nothing queued, in flight or half reassembled (Network::quiescent).
  bool idle() const;
  /// The back end's share of the owner's sleep claim: nothing queued and
  /// both endpoints inert. Mid-packet reassembly and a starved credit
  /// sender are input-driven, so they do not keep the owner awake.
  bool asleep() const {
    return flit_out_.empty() && tx_.gate_idle() && rx_.gate_idle();
  }
  /// Sender back-pressure (0 unless flow == kCredit) through cycle `now`.
  std::uint64_t credit_stalls(std::uint64_t now) const {
    return tx_.credit_stalls(now);
  }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_received() const { return packets_received_; }

 private:
  PacketFormat format_;
  std::uint32_t lanes_;
  link::LinkSender tx_;
  link::LinkReceiver rx_;
  Ring<Flit> flit_out_;  ///< packetizer output, drains 1 flit/cycle
  /// One reassembler per lane: packets interleave across lanes on the
  /// wire, but arrive in order within a lane.
  std::vector<Depacketizer> depack_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_received_ = 0;
};

// OCP <-> packet conversions, shared by both front ends.

/// Request command of an OCP beat (kIdle is never packetized).
PacketCmd to_packet_cmd(ocp::Cmd cmd);
/// Inverse of to_packet_cmd (responses are never replayed as requests).
ocp::Cmd to_ocp_cmd(PacketCmd cmd);
/// An OCP data word as one payload beat of `format`.
BitVector to_beat(std::uint64_t data, const PacketFormat& format);

}  // namespace xpl::ni
