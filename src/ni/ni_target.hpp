// Target Network Interface.
//
// Bridges the xpipes network to an OCP slave core (memory, peripheral).
// Back end: the shared BackEnd (back_end.hpp) — a receiver for request
// packets and a sender for response packets. Front end: the OCP master
// socket driving the slave core beat by beat.
//
// Request packets are reassembled and replayed as OCP bursts; the
// originating transaction's identity (source NI, txn id, thread) is held
// in a per-thread pending queue — OCP slaves respond in order within a
// thread — and response packets are built with the route looked up in the
// source-indexed response LUT, the mirror of the paper's MAddr LUT.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/ring.hpp"
#include "src/ni/back_end.hpp"
#include "src/ni/lut.hpp"
#include "src/ocp/agents.hpp"
#include "src/sim/stream.hpp"

namespace xpl::ni {

/// With protocol.vcs > 1 the job pipeline decouples request ejection
/// from response injection (see tick()), removing the request-reply
/// wedge a saturated shared-lane network can otherwise hit.
struct TargetConfig : PortConfig {
  std::size_t job_queue_depth = 4;   ///< whole request packets buffered
  std::size_t ocp_req_credits = 8;   ///< slave core's request FIFO depth
  std::size_t ocp_resp_fifo = 8;     ///< front-end response buffer (beats)

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
  std::uint64_t packets_received() const { return back_.packets_received(); }
  std::uint64_t packets_sent() const { return back_.packets_sent(); }
  /// Network-port sender back-pressure (0 unless flow == kCredit)
  /// through cycle `now`.
  std::uint64_t credit_stalls(std::uint64_t now) const {
    return back_.credit_stalls(now);
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

  BackEnd back_;
  sim::StreamProducer<ocp::ReqBeat> ocp_req_;
  sim::StreamConsumer<ocp::RespBeat> ocp_resp_;

  Ring<Packet> jobs_;                   ///< decoded requests awaiting issue
  std::optional<Packet> issuing_;       ///< request being beat-streamed
  std::uint32_t issue_beat_ = 0;

  /// In-flight response-expecting requests, oldest first, per OCP thread
  /// (1 << thread_bits slots); `pending_count_` across all threads.
  std::vector<Ring<PendingResp>> pending_;
  std::size_t pending_count_ = 0;
  /// The response being collected per thread. Only a thread's oldest
  /// pending request collects, so a slot is set only while pending.
  std::vector<std::optional<RespBuild>> collecting_;
};

}  // namespace xpl::ni
