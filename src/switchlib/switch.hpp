// The xpipes lite switch.
//
// Faithful to the paper's microarchitecture, generalized to N virtual
// channels (lanes) per port:
//   * wormhole switching with source-based routing — the head flit carries
//     the whole route; each switch reads its output-port selector from the
//     head flit's low bits and shifts the route field (header.hpp);
//   * 2-stage pipeline — stage 1 latches the incoming flit into its
//     lane's input buffer, stage 2 allocates a lane + output (VC
//     allocation and switch allocation), traverses the crossbar and
//     writes the output-lane queue; an optional `extra_pipeline`
//     parameter reproduces the 7-stage switch of the *first* xpipes
//     library for the latency comparison (bench F8);
//   * output queuing — per-(output, lane) FIFOs ("buffering for
//     performance"); a blocked lane parks only its own queue;
//   * ACK/nACK or credit flow & error control on every port, per lane,
//     over pipelined links (flow.hpp seam);
//   * fixed-priority or round-robin arbitration over (input, lane)
//     requests, one arbiter per output, n_out x n_in crossbar. Wormhole
//     locks are per-(output, lane), so packets on different lanes
//     interleave on one physical link — the head-of-line-blocking relief
//     virtual channels buy. In-progress wormholes have priority over new
//     head flits (lanes served round-robin); with vcs == 1 this collapses
//     to the seed's single-lock, locked-input-first switch exactly.
//
// Lane selection on forwarding (VC allocation) is a local combinational
// rule configured per instance:
//   * VcMap::kInherit — the outgoing lane equals the incoming lane; the
//     initiator NI's round-robin choice rides end to end (parallel-lane
//     networks: XY meshes, up*/down*).
//   * VcMap::kDateline — the lane resets to 0 when the output link's
//     vc_class differs from the input's (or the flit was just injected)
//     and bumps by one on dateline outputs — the switch-local mirror of
//     topology::dateline_route_vcs, which the deadlock checker proves
//     cycle-free for minimal routes on rings, tori and spidergons.
//
// Port counts are independent (the paper's mesh uses 4x4 and 6x4
// switches), set per instance by the xpipesCompiler.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/ring.hpp"
#include "src/link/flow.hpp"
#include "src/link/link.hpp"
#include "src/sim/kernel.hpp"
#include "src/switchlib/arbiter.hpp"

namespace xpl::switchlib {

/// How the switch assigns the outgoing lane of a forwarded flit.
enum class VcMap : std::uint8_t { kInherit, kDateline };

/// Per-instance switch parameters (the xpipesCompiler's knobs).
struct SwitchConfig {
  std::size_t num_inputs = 4;
  std::size_t num_outputs = 4;
  std::size_t flit_width = 32;        ///< payload bits per flit
  std::size_t port_bits = 3;          ///< route selector width
  std::size_t route_bits = 24;        ///< route field width in head flits
  std::size_t input_fifo_depth = 2;   ///< stage-1 buffer per (input, lane)
  std::size_t output_fifo_depth = 4;  ///< output queue per (output, lane)
  std::size_t extra_pipeline = 0;     ///< 0 => the paper's 2-stage switch
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;
  /// Link-level flow control on every port (link::flow.hpp seam).
  link::FlowControl flow = link::FlowControl::kAckNack;
  link::ProtocolConfig protocol{};    ///< uniform link protocol parameters
  /// Optional per-port protocol overrides (per-instance buffer sizing:
  /// the go-back-N window of each port matches *its* link's round trip
  /// instead of the network-wide worst case). Empty = use `protocol`.
  std::vector<link::ProtocolConfig> input_protocols;
  std::vector<link::ProtocolConfig> output_protocols;

  /// Virtual channels per port. Every per-port protocol must carry the
  /// same lane count.
  std::size_t vcs = 1;
  /// Lane assignment rule (see file comment). Only kDateline consults the
  /// per-port annotations below.
  VcMap vc_map = VcMap::kInherit;
  /// vc_class of the link behind each input/output port; kNiClass for NI
  /// attachment ports. Empty = all zero (single-class topologies).
  static constexpr std::uint8_t kNiClass = 0xFF;
  std::vector<std::uint8_t> input_vc_class;
  std::vector<std::uint8_t> output_vc_class;
  /// Dateline mark of the link behind each output port. Empty = none.
  std::vector<bool> output_dateline;

  const link::ProtocolConfig& input_protocol(std::size_t port) const {
    return input_protocols.empty() ? protocol : input_protocols.at(port);
  }
  const link::ProtocolConfig& output_protocol(std::size_t port) const {
    return output_protocols.empty() ? protocol : output_protocols.at(port);
  }

  /// Total pipeline stages as the paper counts them.
  std::size_t pipeline_stages() const { return 2 + extra_pipeline; }

  void validate() const;
};

/// One switch instance. Input port i receives on `input_wires[i]`; output
/// port o transmits on `output_wires[o]`.
class Switch : public sim::Module {
 public:
  Switch(std::string name, const SwitchConfig& config,
         std::vector<link::LinkWires> input_wires,
         std::vector<link::LinkWires> output_wires);

  void tick(sim::Kernel& kernel) override;

  /// Sleep claim: kNever once every buffer, delay line and endpoint is
  /// inert, next cycle otherwise. Held wormhole locks, unacknowledged
  /// flits and starved credit senders are sleepable state — the next
  /// body flit or credit/ACK beat wakes the switch through a watched
  /// wire. See DESIGN.md §2.
  std::uint64_t next_event(std::uint64_t now) const override;

  const SwitchConfig& config() const { return config_; }

  /// Flits forwarded input->output since construction.
  std::uint64_t flits_switched() const { return flits_switched_; }
  /// Cycles in which at least one flit traversed the crossbar.
  std::uint64_t active_cycles() const { return active_cycles_; }
  /// Per-output count of granted head flits (packets routed).
  const std::vector<std::uint64_t>& packets_per_output() const {
    return packets_out_;
  }
  /// Retransmissions requested of this switch's senders (error/flow);
  /// always 0 in credit mode.
  std::uint64_t retransmissions() const;
  /// Credit-starvation cycles summed over this switch's senders (zero
  /// credits, window parked downstream) through cycle `now`; always 0 in
  /// ACK/nACK mode.
  std::uint64_t credit_stalls(std::uint64_t now) const;

  /// True when no flit is buffered or in flight inside the switch.
  bool idle() const;

  /// One-line occupancy/lock dump for debugging wedged networks.
  std::string debug_state() const;

 private:
  static constexpr std::size_t kNoPort = static_cast<std::size_t>(-1);

  struct InLane {
    Ring<Flit> fifo;  ///< bounded by input_fifo_depth
    std::size_t locked_output = kNoPort;  ///< wormhole in progress
    std::uint8_t locked_out_vc = 0;       ///< lane held at that output
    bool expecting_body = false;          ///< protocol check state
  };

  struct InputPort {
    link::LinkReceiver rx;
    std::vector<InLane> lanes;  ///< one per virtual channel
  };

  struct OutLane {
    Ring<Flit> fifo;  ///< bounded by output_fifo_depth
    /// Crossbar-to-queue delay line modelling extra pipeline stages; each
    /// entry records the cycle it entered and exits extra_pipeline later.
    /// Shares the output_fifo_depth bound (fifo + pipe <= depth).
    Ring<std::pair<Flit, std::uint64_t>> pipe;
    std::size_t locked_input = kNoPort;  ///< wormhole allocator state
    std::uint8_t locked_in_vc = 0;       ///< input lane holding the lock
  };

  struct OutputPort {
    link::LinkSender tx;
    std::vector<OutLane> lanes;  ///< one per virtual channel
    Arbiter arbiter;             ///< over (input, lane) requests
    std::size_t next_tx_lane = 0;      ///< sender-drain rotation
    std::size_t next_locked_lane = 0;  ///< locked-wormhole rotation

    OutputPort(ArbiterKind kind, std::size_t requests)
        : arbiter(kind, requests) {}
  };

  /// Output a new wormhole on `lane` requests: the route selector of the
  /// head flit at its front, or kNoPort when the lane is empty or already
  /// holds a wormhole (locked lanes forward only to their locked output).
  std::size_t requested_output(const InLane& lane) const;

  /// Lane a flit on input lane (in_port, in_vc) takes at output
  /// `out_port` — the VC-allocation rule (see file comment).
  std::uint8_t out_vc(std::size_t in_port, std::uint8_t in_vc,
                      std::size_t out_port) const;

  SwitchConfig config_;
  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;

  /// Stage-2 request state, hoisted out of tick() so arbitration does no
  /// per-cycle allocation. lane_req_ holds each input lane's
  /// requested_output() (indexed input * vcs + lane), computed once per
  /// cycle and again whenever a flit leaves the lane; out_requested_
  /// marks the outputs some lane requests, so an output with no locked
  /// winner and no requester skips the (input, lane) scan; req_scratch_
  /// is the arbiter's request vector.
  std::vector<std::size_t> lane_req_;
  std::vector<bool> out_requested_;
  std::vector<bool> req_scratch_;

  std::uint64_t flits_switched_ = 0;
  std::uint64_t active_cycles_ = 0;
  std::vector<std::uint64_t> packets_out_;
};

}  // namespace xpl::switchlib
