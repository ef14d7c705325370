// Initiator Network Interface.
//
// Bridges an OCP master core (CPU/DSP) to the xpipes network. Front end:
// the OCP slave socket (request consumer / response producer). Back end:
// the shared BackEnd (back_end.hpp) — a sender toward the network for
// request packets and a receiver for response packets, the paper's
// independent request/response paths.
//
// Packetization follows the paper exactly: the header register is filled
// once per transaction (route from the LUT keyed by MAddr, remaining
// fields from the OCP request), the payload register once per burst beat;
// the back end decomposes both into flits. Responses are matched per
// transaction id, supporting multiple outstanding transactions and the
// OCP threading extensions.
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

struct InitiatorConfig : PortConfig {
  std::size_t ocp_req_fifo = 4;     ///< front-end request buffer (beats)
  std::size_t ocp_resp_credits = 8; ///< master core's response FIFO depth
  std::size_t resp_queue_depth = 8; ///< response beats buffered network-side
  std::size_t max_outstanding = 8;  ///< response-expecting txns in flight

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
  std::uint64_t packets_sent() const { return back_.packets_sent(); }
  std::uint64_t packets_received() const { return back_.packets_received(); }
  std::uint64_t lut_misses() const { return lut_misses_; }
  /// Network-port sender back-pressure (0 unless flow == kCredit)
  /// through cycle `now`.
  std::uint64_t credit_stalls(std::uint64_t now) const {
    return back_.credit_stalls(now);
  }
  /// True when no transaction is in flight anywhere in this NI.
  bool idle() const;

 private:
  /// One slot of the outstanding-transaction table, indexed by txn id.
  struct Outstanding {
    PacketCmd cmd = PacketCmd::kRead;
    std::uint32_t burst_len = 1;
    std::uint32_t thread_id = 0;
    /// The reorder buffer entry: a response that arrived before every
    /// older transaction of its thread had answered.
    std::optional<Packet> response;
  };

  struct Building {
    Header header;
    std::vector<BitVector> beats;
    std::uint32_t beats_needed = 0;
  };

  void start_packet(const ocp::ReqBeat& beat);
  void finish_packet();
  void deliver_response(Packet&& packet);

  InitiatorConfig config_;
  RouteLut lut_;

  sim::StreamConsumer<ocp::ReqBeat> ocp_req_;
  sim::StreamProducer<ocp::RespBeat> ocp_resp_;
  BackEnd back_;

  std::optional<Building> building_;
  Ring<ocp::RespBeat> resp_out_;  ///< decoded beats toward the core

  /// 1 << txn_bits slots; `outstanding_count_` of them are live.
  std::vector<std::optional<Outstanding>> outstanding_;
  std::size_t outstanding_count_ = 0;
  /// Issue order per OCP thread (1 << thread_bits slots): responses must
  /// reach the core in this order, so packets arriving early park in
  /// their transaction's slot until their turn.
  std::vector<Ring<std::uint32_t>> thread_order_;
  std::uint32_t next_txn_ = 0;

  std::uint64_t lut_misses_ = 0;
};

}  // namespace xpl::ni
