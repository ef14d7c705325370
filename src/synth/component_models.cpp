#include "src/synth/component_models.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/crc.hpp"
#include "src/packet/flit.hpp"

namespace xpl::synth {

namespace {
double log2d(double x) { return std::log2(std::max(2.0, x)); }

// The network back end both NIs share (ni/back_end.hpp): go-back-N sender
// (retx buffer + counters + CRC gen) and receiver (CRC check + seq), then
// per extra lane a retransmission window + sequencing and a reassembler
// (packets interleave across lanes). Adds into `n` term by term, in the
// order the NI builders always summed them.
void append_ni_back_end(Netlist& n, const PacketFormat& fmt,
                        const link::ProtocolConfig& protocol) {
  const std::size_t wire = wire_bits(fmt.flit_width, protocol);
  const std::size_t flit_store = fmt.flit_width + 2;
  n += fifo(protocol.window, flit_store);
  n += counter(protocol.seq_bits);
  n += counter(protocol.seq_bits);
  n += crc_logic(wire, crc_width(protocol.crc));
  n += crc_logic(wire, crc_width(protocol.crc));
  n += counter(protocol.seq_bits);
  for (std::size_t v = 1; v < protocol.vcs; ++v) {
    n += fifo(protocol.window, flit_store);
    n += counter(protocol.seq_bits);
    n += counter(protocol.seq_bits);
    n += counter(protocol.seq_bits);
    n += dff_bank(fmt.header.width());
    n += dff_bank(fmt.beat_width);
  }
}
}  // namespace

std::size_t wire_bits(std::size_t flit_width, const link::ProtocolConfig& p) {
  // The lane tag rides the wire only when there is more than one lane.
  const std::size_t vc_bits = p.vcs > 1 ? bits_for(p.vcs) : 0;
  return flit_wire_width(flit_width, p.seq_bits, p.crc, vc_bits);
}

Netlist build_switch_netlist(const switchlib::SwitchConfig& config) {
  const std::size_t flit_store = config.flit_width + 2;  // payload+head+tail
  const std::size_t vcs = config.vcs;
  // Lock state: owned output (or input) index + valid bit + lane tag.
  const std::size_t lane_tag = vcs > 1 ? bits_for(vcs) : 0;
  Netlist n;

  // ---- Per input port (protocol parameters may differ per port when the
  // compiler sizes windows to each link's round trip). Buffering,
  // sequencing and wormhole locks replicate per lane; the CRC forest and
  // the request decode are shared (one flit arrives per cycle). The
  // single-lane composition below is the seed model term for term; extra
  // lanes append their replicated structures after it.
  for (std::size_t i = 0; i < config.num_inputs; ++i) {
    const auto& protocol = config.input_protocol(i);
    const std::size_t wire = wire_bits(config.flit_width, protocol);
    // Stage-1 input buffer (payload + control; seqno/CRC are stripped at
    // the receiver).
    n += fifo(config.input_fifo_depth, flit_store);
    // Receiver: CRC check over the whole wire view, expected-seq counter,
    // seq comparator, ack staging register.
    n += crc_logic(wire, crc_width(protocol.crc));
    n += counter(protocol.seq_bits);
    n += comparator(protocol.seq_bits);
    n += dff_bank(protocol.seq_bits + 2);
    // Route peek + request decode toward the outputs.
    n += decoder(config.num_outputs);
    // Wormhole lock: which output this input owns.
    n += dff_bank(static_cast<std::size_t>(log2d(
                      static_cast<double>(config.num_outputs))) + 1);
    // Additional lanes: buffer, sequencing and lock per lane, plus the
    // lane tag every lock grows.
    for (std::size_t v = 1; v < vcs; ++v) {
      n += fifo(config.input_fifo_depth, flit_store);
      n += counter(protocol.seq_bits);
      n += comparator(protocol.seq_bits);
      n += dff_bank(protocol.seq_bits + 2);
      n += dff_bank(static_cast<std::size_t>(log2d(
                        static_cast<double>(config.num_outputs))) + 1);
    }
    n += dff_bank(vcs * lane_tag);
  }

  // ---- Per output port.
  for (std::size_t o = 0; o < config.num_outputs; ++o) {
    const auto& protocol = config.output_protocol(o);
    const std::size_t wire = wire_bits(config.flit_width, protocol);
    // Crossbar column: (num_inputs * vcs)-to-1 mux over the stored flit.
    n += mux(flit_store, config.num_inputs * vcs);
    // Route-consume shifter sits after the crossbar (head flits only).
    n += const_shifter(config.route_bits);
    // Arbiter over (input, lane) requests + allocator lock.
    if (config.arbiter == switchlib::ArbiterKind::kRoundRobin) {
      n += rr_arbiter(config.num_inputs * vcs);
    } else {
      n += fixed_arbiter(config.num_inputs * vcs);
    }
    n += dff_bank(static_cast<std::size_t>(log2d(
                      static_cast<double>(config.num_inputs))) + 1);
    // Output queue ("output queued ... buffering for performance").
    n += fifo(config.output_fifo_depth, flit_store);
    // Go-back-N sender: retransmission buffer sized to the window, next/
    // base sequence counters, resend index, CRC generator.
    n += fifo(protocol.window, flit_store);
    n += counter(protocol.seq_bits);
    n += counter(protocol.seq_bits);
    n += counter(static_cast<std::size_t>(
        log2d(static_cast<double>(protocol.window)) + 1));
    n += crc_logic(wire, crc_width(protocol.crc));
    // Extra pipeline registers (old-xpipes 7-stage emulation).
    n += dff_bank(config.extra_pipeline * flit_store);
    // Additional lanes: queue, retransmission window, sequencing, lock
    // and pipeline registers per lane (CRC generation stays shared).
    for (std::size_t v = 1; v < vcs; ++v) {
      n += dff_bank(static_cast<std::size_t>(log2d(
                        static_cast<double>(config.num_inputs))) + 1);
      n += fifo(config.output_fifo_depth, flit_store);
      n += fifo(protocol.window, flit_store);
      n += counter(protocol.seq_bits);
      n += counter(protocol.seq_bits);
      n += counter(static_cast<std::size_t>(
          log2d(static_cast<double>(protocol.window)) + 1));
      n += dff_bank(config.extra_pipeline * flit_store);
    }
    n += dff_bank(vcs * lane_tag);
  }

  // ---- Control overhead (FSMs, valid trees, clock gating): 8%.
  n.combinational *= 1.08;
  return n;
}

double switch_logic_levels(const switchlib::SwitchConfig& config) {
  // Stage 2 dominates: request decode -> arbiter chain -> grant -> crossbar
  // mux tree -> route shifter -> queue write, in parallel with the CRC
  // forest on the receive side. Calibrated so the macro (max-effort)
  // ceiling lands at the paper's clocks: 4x4 ~1.07 GHz, 6x4 ~980 MHz,
  // 5x5 ~1.0 GHz (and ~1.5 GHz full custom).
  const double arb =
      3.5 * log2d(static_cast<double>(config.num_inputs * config.vcs));
  const double xbar =
      2.0 * log2d(static_cast<double>(config.num_inputs * config.vcs));
  const double out_sel = 2.0 * log2d(static_cast<double>(config.num_outputs));
  const double crc =
      config.protocol.crc == CrcKind::kNone ? 0.0 : 4.0;
  const double base = 10.0;  // latch enables, valid qualification, shifter
  return base + arb + xbar + out_sel + crc;
}

Netlist build_initiator_ni_netlist(const ni::InitiatorConfig& config,
                                   std::size_t num_targets) {
  const PacketFormat& fmt = config.format;
  const std::size_t header_bits = fmt.header.width();
  Netlist n;

  // ---- OCP front end: request beat register + accept logic, response
  // beat register, credit counters both ways.
  const std::size_t req_beat_bits =
      fmt.beat_width + 32 + 12;  // data + addr + control
  n += fifo(config.ocp_req_fifo, req_beat_bits);
  n += dff_bank(fmt.beat_width + 8);  // response beat register
  n += counter(4);
  n += counter(4);

  // ---- Packetization: the paper's header register (~50 bits, one per
  // transaction) and payload register (one per burst beat), plus the
  // flit-decomposition shifter that walks both registers.
  n += dff_bank(header_bits);
  n += dff_bank(fmt.beat_width);
  n += barrel_shifter(fmt.flit_width);
  n += counter(6);  // flit position within register

  // ---- Address decode + route LUT ("from MAddr after LUT"): one range
  // comparator pair per target window plus the route/destination ROM.
  n += Netlist{3.0 * static_cast<double>(num_targets) * 8.0, 0.0};
  n += lut_rom(num_targets,
               fmt.header.route_bits() + fmt.header.node_bits);

  // ---- Outstanding transaction table (multiple outstanding reads /
  // non-posted writes): cmd, burst, thread per txn id.
  const std::size_t txn_entry_bits = 2 + fmt.header.burst_bits +
                                     fmt.header.thread_bits + 1;
  n += dff_bank((std::size_t{1} << fmt.header.txn_bits) * txn_entry_bits / 2);
  n += counter(fmt.header.txn_bits);

  // ---- Response path: depacketizer header/beat assembly registers and
  // the response beat queue toward the core.
  n += dff_bank(header_bits);
  n += dff_bank(fmt.beat_width);
  n += fifo(config.resp_queue_depth, fmt.beat_width + 8);

  // ---- Network back end: link endpoints and extra lanes.
  append_ni_back_end(n, fmt, config.protocol);

  n.combinational *= 1.08;
  return n;
}

double initiator_ni_logic_levels(const ni::InitiatorConfig& config) {
  // Address decode (range compare) feeding the LUT read is the long pole,
  // roughly constant; the flit shifter adds log2(width) mux levels.
  // Calibrated so the NI closes ~1.2 GHz at max effort (paper: NIs at
  // 1 GHz alongside the 4x4 switches).
  return 20.0 + 1.0 * log2d(static_cast<double>(config.format.flit_width));
}

Netlist build_target_ni_netlist(const ni::TargetConfig& config,
                                std::size_t num_initiators) {
  const PacketFormat& fmt = config.format;
  const std::size_t header_bits = fmt.header.width();
  Netlist n;

  // ---- Request path: depacketizer registers + job queue holding decoded
  // requests (header + up to one beat in flight; burst beats stream).
  n += dff_bank(header_bits);
  n += dff_bank(fmt.beat_width);
  n += fifo(config.job_queue_depth, header_bits + fmt.beat_width);

  // ---- OCP master front end.
  n += dff_bank(fmt.beat_width + 32 + 12);
  n += counter(4);
  n += counter(4);
  n += fifo(config.ocp_resp_fifo, fmt.beat_width + 8);

  // ---- Pending-response bookkeeping (src, txn, thread per in-flight
  // request) and the response packetizer registers.
  const std::size_t pend_bits = fmt.header.node_bits + fmt.header.txn_bits +
                                fmt.header.thread_bits + 2 +
                                fmt.header.burst_bits;
  n += fifo(4, pend_bits);
  n += dff_bank(header_bits);
  n += dff_bank(fmt.beat_width);
  n += barrel_shifter(fmt.flit_width);

  // ---- Response route LUT (indexed by source NI id).
  n += lut_rom(num_initiators,
               fmt.header.route_bits() + fmt.header.node_bits);

  // ---- Network back end: link endpoints and extra lanes.
  append_ni_back_end(n, fmt, config.protocol);

  n.combinational *= 1.08;
  return n;
}

double target_ni_logic_levels(const ni::TargetConfig& config) {
  return 19.0 + 1.0 * log2d(static_cast<double>(config.format.flit_width));
}

}  // namespace xpl::synth
