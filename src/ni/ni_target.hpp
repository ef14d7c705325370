// Target Network Interface.
//
// Bridges the xpipes network to an OCP slave core (memory, peripheral).
// Back end: a go-back-N receiver for request packets and a sender for
// response packets. Front end: the OCP master socket driving the slave
// core beat by beat.
//
// Request packets are depacketized and replayed as OCP bursts; the
// originating transaction's identity (source NI, txn id, thread) is held
// in a per-thread pending queue — OCP slaves respond in order within a
// thread — and response packets are built with the route looked up in the
// source-indexed response LUT, the mirror of the paper's MAddr LUT.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "src/common/ring.hpp"
#include "src/link/flow.hpp"
#include "src/ni/lut.hpp"
#include "src/ocp/agents.hpp"
#include "src/packet/packetizer.hpp"
#include "src/sim/kernel.hpp"
#include "src/sim/stream.hpp"

namespace xpl::ni {

struct TargetConfig {
  PacketFormat format{};
  std::uint32_t node_id = 0;
  std::size_t job_queue_depth = 4;   ///< whole request packets buffered
  std::size_t ocp_req_credits = 8;   ///< slave core's request FIFO depth
  std::size_t ocp_resp_fifo = 8;     ///< front-end response buffer (beats)
  link::FlowControl flow = link::FlowControl::kAckNack;
  link::ProtocolConfig protocol{};
  /// Virtual channels on the network ports. Request flits are drained
  /// from every lane (one reassembler per lane); response packets ride
  /// the lane of their OCP thread, mirroring the initiator. With vcs > 1
  /// the job pipeline also decouples request ejection from response
  /// injection (see tick()), removing the request-reply wedge a
  /// saturated shared-lane network can otherwise hit.
  std::size_t vcs = 1;

  void validate() const;
};

class TargetNi : public sim::Module {
 public:
  TargetNi(std::string name, const TargetConfig& config,
           const ocp::OcpWires& ocp, const link::LinkWires& net_in,
           const link::LinkWires& net_out);

  /// Compiler/testbench API: program the response-route table.
  ResponseLut& lut() { return lut_; }
  const ResponseLut& lut() const { return lut_; }

  void tick(sim::Kernel& kernel) override;

  /// Sleep claim: kNever once no job is queued or issuing, nothing is
  /// buffered toward the network and every endpoint is inert, next cycle
  /// otherwise. Pending/collecting response bookkeeping, mid-packet
  /// reassembly and a starved credit sender are input-driven (sleepable)
  /// state. See DESIGN.md §2.
  std::uint64_t next_event(std::uint64_t now) const override;

  const TargetConfig& config() const { return config_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  /// Network-port sender back-pressure (0 unless flow == kCredit)
  /// through cycle `now`.
  std::uint64_t credit_stalls(std::uint64_t now) const {
    return tx_.credit_stalls(now);
  }
  bool idle() const;

 private:
  struct PendingResp {
    std::uint32_t src = 0;
    std::uint32_t txn_id = 0;
    std::uint32_t thread_id = 0;
    PacketCmd cmd = PacketCmd::kRead;
    std::uint32_t burst_len = 1;
  };

  struct RespBuild {
    PendingResp meta;
    std::uint8_t resp = 0;
    bool interrupt = false;
    std::vector<BitVector> beats;
  };

  void complete_response(RespBuild build);

  TargetConfig config_;
  ResponseLut lut_;

  link::LinkReceiver rx_;
  link::LinkSender tx_;
  sim::StreamProducer<ocp::ReqBeat> ocp_req_;
  sim::StreamConsumer<ocp::RespBeat> ocp_resp_;

  /// One reassembler per lane: request packets interleave across lanes.
  std::vector<Depacketizer> depack_;
  Ring<Packet> jobs_;                   ///< decoded requests awaiting issue
  std::optional<Packet> issuing_;       ///< request being beat-streamed
  std::uint32_t issue_beat_ = 0;

  /// In-flight response-expecting requests, oldest first, per OCP thread.
  std::map<std::uint32_t, std::deque<PendingResp>> pending_;
  std::map<std::uint32_t, RespBuild> collecting_;  ///< per-thread response

  Ring<Flit> flit_out_;

  std::uint64_t packets_received_ = 0;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace xpl::ni
