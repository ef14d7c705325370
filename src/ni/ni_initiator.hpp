// Initiator Network Interface.
//
// Bridges an OCP master core (CPU/DSP) to the xpipes network. Front end:
// the OCP slave socket (request consumer / response producer). Back end:
// one go-back-N sender toward the network for request packets and one
// receiver for response packets — the paper's independent request/response
// paths.
//
// Packetization follows the paper exactly: the header register is filled
// once per transaction (route from the LUT keyed by MAddr, remaining
// fields from the OCP request), the payload register once per burst beat;
// both are decomposed into flits (packetizer.hpp). Responses are
// reassembled per transaction id, supporting multiple outstanding
// transactions and the OCP threading extensions.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "src/common/ring.hpp"
#include "src/link/flow.hpp"
#include "src/ni/lut.hpp"
#include "src/ocp/agents.hpp"
#include "src/packet/packetizer.hpp"
#include "src/sim/kernel.hpp"
#include "src/sim/stream.hpp"

namespace xpl::ni {

struct InitiatorConfig {
  PacketFormat format{};
  std::uint32_t node_id = 0;
  std::size_t ocp_req_fifo = 4;     ///< front-end request buffer (beats)
  std::size_t ocp_resp_credits = 8; ///< master core's response FIFO depth
  std::size_t resp_queue_depth = 8; ///< response beats buffered network-side
  std::size_t max_outstanding = 8;  ///< response-expecting txns in flight
  link::FlowControl flow = link::FlowControl::kAckNack;
  link::ProtocolConfig protocol{};  ///< network-port link parameters
  /// Virtual channels on the network ports. Request packets ride the
  /// lane of their OCP thread (thread_id % vcs): threads are the
  /// protocol's ordering domain, so same-thread requests stay FIFO on
  /// one lane while independent threads spread over the lanes. Response
  /// flits are drained from every lane.
  std::size_t vcs = 1;

  void validate() const;
};

class InitiatorNi : public sim::Module {
 public:
  /// `ocp` is the socket shared with the master core; `net_out`/`net_in`
  /// are the request/response network ports.
  InitiatorNi(std::string name, const InitiatorConfig& config,
              const ocp::OcpWires& ocp, const link::LinkWires& net_out,
              const link::LinkWires& net_in);

  /// Compiler/testbench API: program the address decoder and routes.
  RouteLut& lut() { return lut_; }
  const RouteLut& lut() const { return lut_; }

  void tick(sim::Kernel& kernel) override;

  /// Sleep claim: kNever once nothing is buffered toward the network or
  /// the core and every endpoint is inert, next cycle otherwise.
  /// Outstanding transactions, the reorder buffer, a half-built packet,
  /// mid-packet reassembly and a starved credit sender are input-driven
  /// state: a tick moves them only when a beat arrives, and arrivals wake
  /// this module. See DESIGN.md §2.
  std::uint64_t next_event(std::uint64_t now) const override;

  const InitiatorConfig& config() const { return config_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t lut_misses() const { return lut_misses_; }
  /// Network-port sender back-pressure (0 unless flow == kCredit)
  /// through cycle `now`.
  std::uint64_t credit_stalls(std::uint64_t now) const {
    return tx_.credit_stalls(now);
  }
  /// True when no transaction is in flight anywhere in this NI.
  bool idle() const;

 private:
  struct Outstanding {
    ocp::Cmd cmd = ocp::Cmd::kRead;
    std::uint32_t burst_len = 1;
    std::uint32_t thread_id = 0;
  };

  struct Building {
    Header header;
    std::vector<BitVector> beats;
    std::uint32_t beats_needed = 0;
  };

  void start_packet(const ocp::ReqBeat& beat);
  void finish_packet();
  void deliver_response(const Packet& packet);

  InitiatorConfig config_;
  RouteLut lut_;

  sim::StreamConsumer<ocp::ReqBeat> ocp_req_;
  sim::StreamProducer<ocp::RespBeat> ocp_resp_;
  link::LinkSender tx_;
  link::LinkReceiver rx_;

  std::optional<Building> building_;
  Ring<Flit> flit_out_;  ///< packetizer output, drains 1 flit/cycle

  /// One reassembler per lane: response packets interleave across lanes
  /// on the wire, but arrive in order within a lane.
  std::vector<Depacketizer> depack_;
  Ring<ocp::RespBeat> resp_out_;  ///< decoded beats toward the core

  std::unordered_map<std::uint32_t, Outstanding> outstanding_;
  /// Issue order per OCP thread: responses must reach the core in this
  /// order, so packets arriving early park in reorder_ until their turn.
  std::unordered_map<std::uint32_t, std::deque<std::uint32_t>> thread_order_;
  std::unordered_map<std::uint32_t, Packet> reorder_;
  std::uint32_t next_txn_ = 0;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t lut_misses_ = 0;
};

}  // namespace xpl::ni
