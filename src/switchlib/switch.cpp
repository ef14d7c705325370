#include "src/switchlib/switch.hpp"

#include <algorithm>
#include <sstream>

#include "src/common/error.hpp"
#include "src/packet/header.hpp"

namespace xpl::switchlib {

namespace {

/// The lane after `v` in a rotation over `vcs` lanes (v < vcs).
std::size_t next_lane(std::size_t v, std::size_t vcs) {
  return v + 1 == vcs ? 0 : v + 1;
}

}  // namespace

void SwitchConfig::validate() const {
  require(num_inputs >= 1 && num_outputs >= 1,
          "SwitchConfig: need at least one input and one output");
  require(num_outputs <= (std::size_t{1} << port_bits),
          "SwitchConfig: port_bits too small for num_outputs");
  require(route_bits <= flit_width,
          "SwitchConfig: route field must fit in one flit");
  require(port_bits <= route_bits, "SwitchConfig: route field too small");
  // An undersized or misaligned route field would silently shift
  // non-route header bits into the hop selectors as the route is
  // consumed; insist on whole hop slots here and let the network
  // assembly check the slot count against the topology's routes.
  require(route_bits % port_bits == 0,
          "SwitchConfig: route_bits must hold a whole number of "
          "port_bits-wide hop selectors");
  require(input_fifo_depth >= 1, "SwitchConfig: input fifo depth >= 1");
  require(output_fifo_depth >= 1, "SwitchConfig: output fifo depth >= 1");
  require(vcs >= 1 && vcs <= link::kMaxVcs,
          "SwitchConfig: vcs must be in [1, " +
              std::to_string(link::kMaxVcs) + "]");
  protocol.validate();
  require(protocol.vcs == vcs, "SwitchConfig: protocol lane count differs "
                               "from the switch's vcs");
  require(input_protocols.empty() || input_protocols.size() == num_inputs,
          "SwitchConfig: input_protocols size mismatch");
  require(output_protocols.empty() ||
              output_protocols.size() == num_outputs,
          "SwitchConfig: output_protocols size mismatch");
  for (const auto& p : input_protocols) {
    p.validate();
    require(p.vcs == vcs, "SwitchConfig: input protocol lane count differs "
                          "from the switch's vcs");
  }
  for (const auto& p : output_protocols) {
    p.validate();
    require(p.vcs == vcs, "SwitchConfig: output protocol lane count "
                          "differs from the switch's vcs");
  }
  require(input_vc_class.empty() || input_vc_class.size() == num_inputs,
          "SwitchConfig: input_vc_class size mismatch");
  require(output_vc_class.empty() || output_vc_class.size() == num_outputs,
          "SwitchConfig: output_vc_class size mismatch");
  require(output_dateline.empty() || output_dateline.size() == num_outputs,
          "SwitchConfig: output_dateline size mismatch");
}

Switch::Switch(std::string name, const SwitchConfig& config,
               std::vector<link::LinkWires> input_wires,
               std::vector<link::LinkWires> output_wires)
    : sim::Module(std::move(name)), config_(config) {
  config_.validate();
  require(input_wires.size() == config.num_inputs,
          "Switch: input wire count mismatch");
  require(output_wires.size() == config.num_outputs,
          "Switch: output wire count mismatch");
  inputs_.reserve(config.num_inputs);
  for (std::size_t i = 0; i < config.num_inputs; ++i) {
    InputPort port;
    port.rx = link::LinkReceiver(config_.flow, input_wires[i],
                                 config_.input_protocol(i));
    port.rx.watch(*this);  // arriving flits re-arm a sleeping switch
    port.lanes.resize(config_.vcs);
    for (InLane& lane : port.lanes) {
      lane.fifo.reserve(config_.input_fifo_depth);
    }
    inputs_.push_back(std::move(port));
  }
  outputs_.reserve(config.num_outputs);
  for (std::size_t o = 0; o < config.num_outputs; ++o) {
    OutputPort port(config.arbiter, config.num_inputs * config_.vcs);
    port.tx = link::LinkSender(config_.flow, output_wires[o],
                               config_.output_protocol(o));
    port.tx.watch(*this);  // ACK/credit returns re-arm a sleeping switch
    port.lanes.resize(config_.vcs);
    for (OutLane& lane : port.lanes) {
      lane.fifo.reserve(config_.output_fifo_depth);
      if (config_.extra_pipeline > 0) {
        lane.pipe.reserve(config_.output_fifo_depth);
      }
    }
    outputs_.push_back(std::move(port));
  }
  packets_out_.assign(config.num_outputs, 0);
  lane_req_.assign(config.num_inputs * config_.vcs, kNoPort);
  out_requested_.assign(config.num_outputs, false);
  req_scratch_.assign(config.num_inputs * config_.vcs, false);
}

std::size_t Switch::requested_output(const InLane& lane) const {
  if (lane.fifo.empty() || lane.locked_output != kNoPort) return kNoPort;
  const Flit& flit = lane.fifo.front();
  XPL_ASSERT(flit.head);  // unlocked lane must present a head flit
  const std::size_t port = peek_route_port(flit.payload, config_.port_bits);
  require(port < config_.num_outputs,
          "Switch: head flit requests a nonexistent output port");
  return port;
}

std::uint8_t Switch::out_vc(std::size_t in_port, std::uint8_t in_vc,
                            std::size_t out_port) const {
  if (config_.vcs == 1 || config_.vc_map == VcMap::kInherit) return in_vc;
  // Dateline rule — the local mirror of topology::dateline_route_vcs.
  const std::uint8_t in_class = config_.input_vc_class.empty()
                                    ? 0
                                    : config_.input_vc_class[in_port];
  const std::uint8_t out_class = config_.output_vc_class.empty()
                                     ? 0
                                     : config_.output_vc_class[out_port];
  if (out_class == SwitchConfig::kNiClass) return in_vc;  // ejection
  std::uint8_t vc = (in_class == out_class) ? in_vc : 0;
  if (!config_.output_dateline.empty() &&
      config_.output_dateline[out_port]) {
    ++vc;
  }
  require(vc < config_.vcs,
          "Switch: dateline lane assignment needs more VCs than configured");
  return vc;
}

void Switch::tick(sim::Kernel& kernel) {
  // ---- Reverse order of the pipeline so each flit advances exactly one
  // stage per cycle (see DESIGN.md: stage 1 = input latch, stage 2 =
  // VC/switch allocation + crossbar + output-queue write, then link
  // transmit).
  const std::size_t vcs = config_.vcs;
  const std::uint64_t now = kernel.cycle();

  // Output ports, one pass each: the sender's ACK/nACK / credit
  // bookkeeping (it retires or rewinds), link transmit — drain one flit
  // into the sender, serving output lanes round-robin (one physical wire
  // per output) — and the sender driving its wire. Nothing later in the
  // tick touches a sender, so its wire write here is the one it would
  // make at the end of the tick.
  for (OutputPort& out : outputs_) {
    out.tx.begin_cycle(now);
    std::size_t v = out.next_tx_lane;
    for (std::size_t k = 0; k < vcs; ++k, v = next_lane(v, vcs)) {
      OutLane& lane = out.lanes[v];
      if (lane.fifo.empty() || !out.tx.can_accept(v)) continue;
      out.tx.accept(std::move(lane.fifo.front()));
      lane.fifo.pop_front();
      out.next_tx_lane = next_lane(v, vcs);
      break;
    }
    out.tx.end_cycle();
  }

  // Extra pipeline stages (old-xpipes emulation): release delay-line
  // entries that have spent extra_pipeline cycles in flight.
  if (config_.extra_pipeline > 0) {
    for (OutputPort& out : outputs_) {
      for (OutLane& lane : out.lanes) {
        if (!lane.pipe.empty() &&
            now >= lane.pipe.front().second + config_.extra_pipeline) {
          lane.fifo.push_back(std::move(lane.pipe.front().first));
          lane.pipe.pop_front();
        }
      }
    }
  }

  // Stage 2: VC allocation + switch allocation + crossbar traversal. One
  // input-major pass records each input lane's requested output and marks
  // the requested outputs; the output loop then costs what its busy ports
  // do — an output with no locked winner and no requester scans nothing.
  // A lane's request is recomputed when a flit leaves it, so a tail
  // followed by the next head can still win a later output this cycle.
  // One flit traverses the crossbar per output per cycle.
  bool any_switched = false;
  std::fill(out_requested_.begin(), out_requested_.end(), false);
  for (std::size_t i = 0, idx = 0; i < inputs_.size(); ++i) {
    for (std::size_t v = 0; v < vcs; ++v, ++idx) {
      const std::size_t req = requested_output(inputs_[i].lanes[v]);
      lane_req_[idx] = req;
      if (req != kNoPort) out_requested_[req] = true;
    }
  }
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    OutputPort& out = outputs_[o];

    std::size_t win_in = kNoPort;  // winning input port
    std::uint8_t win_iv = 0;       // its lane
    std::uint8_t win_ov = 0;       // output lane taken

    // In-progress wormholes first (lanes rotate for fairness; at vcs == 1
    // this is the seed's locked-input bypass, arbiter untouched).
    std::size_t w = out.next_locked_lane;
    for (std::size_t k = 0; k < vcs; ++k, w = next_lane(w, vcs)) {
      OutLane& ol = out.lanes[w];
      if (ol.locked_input == kNoPort) continue;
      // Space accounting covers both the queue and the in-flight delay
      // line.
      if (ol.fifo.size() + ol.pipe.size() >= config_.output_fifo_depth) {
        continue;
      }
      const InLane& il = inputs_[ol.locked_input].lanes[ol.locked_in_vc];
      if (il.fifo.empty()) continue;
      win_in = ol.locked_input;
      win_iv = ol.locked_in_vc;
      win_ov = static_cast<std::uint8_t>(w);
      out.next_locked_lane = next_lane(w, vcs);
      break;
    }

    if (win_in == kNoPort && out_requested_[o]) {
      // New wormholes: arbitrate over the input lanes whose head flit
      // requests this output and whose allocated output lane is free
      // with space.
      bool any = false;
      for (std::size_t i = 0, idx = 0; i < inputs_.size(); ++i) {
        for (std::size_t v = 0; v < vcs; ++v, ++idx) {
          bool wants = false;
          if (lane_req_[idx] == o) {
            const std::uint8_t ov =
                out_vc(i, static_cast<std::uint8_t>(v), o);
            const OutLane& ol = out.lanes[ov];
            wants = ol.locked_input == kNoPort &&
                    ol.fifo.size() + ol.pipe.size() <
                        config_.output_fifo_depth;
          }
          req_scratch_[idx] = wants;
          any = any || wants;
        }
      }
      if (any) {
        const auto grant = out.arbiter.grant(req_scratch_);
        XPL_ASSERT(grant.has_value());
        win_in = *grant / vcs;
        win_iv = static_cast<std::uint8_t>(*grant % vcs);
        win_ov = out_vc(win_in, win_iv, o);
        OutLane& ol = out.lanes[win_ov];
        ol.locked_input = win_in;
        ol.locked_in_vc = win_iv;
        InLane& il = inputs_[win_in].lanes[win_iv];
        il.locked_output = o;
        il.locked_out_vc = win_ov;
        ++packets_out_[o];
      }
    }

    if (win_in == kNoPort) continue;
    InLane& il = inputs_[win_in].lanes[win_iv];
    OutLane& ol = out.lanes[win_ov];
    Flit flit = std::move(il.fifo.front());
    il.fifo.pop_front();
    if (flit.head) {
      // Consume this hop's route selector.
      flit.payload = consume_route_port(flit.payload, config_.port_bits,
                                        config_.route_bits);
    }
    flit.vc = win_ov;  // the lane the flit travels on toward the next hop
    if (flit.tail) {
      // Wormhole complete: release the path.
      ol.locked_input = kNoPort;
      il.locked_output = kNoPort;
    }
    if (config_.extra_pipeline > 0) {
      ol.pipe.emplace_back(std::move(flit), now);
    } else {
      ol.fifo.push_back(std::move(flit));
    }
    // The input lane's head flit changed (and possibly its lock state):
    // recompute its request for the outputs still to come this cycle.
    const std::size_t req = requested_output(il);
    lane_req_[win_in * vcs + win_iv] = req;
    if (req != kNoPort) out_requested_[req] = true;
    ++flits_switched_;
    any_switched = true;
  }
  if (any_switched) ++active_cycles_;

  // Stage 1: latch arriving flits into their lane's input buffer; each
  // receiver then drives its ACK/nACK / credit wire.
  for (InputPort& in : inputs_) {
    std::uint32_t can_take = 0;
    for (std::size_t v = 0; v < vcs; ++v) {
      if (in.lanes[v].fifo.size() < config_.input_fifo_depth) {
        can_take |= 1u << v;
      }
    }
    if (const Flit* flit = in.rx.begin_cycle(can_take)) {
      XPL_ASSERT(flit->vc < vcs);
      InLane& lane = in.lanes[flit->vc];
      // Wormhole protocol check: head flits only between packets, per
      // lane (packets on different lanes interleave on the wire).
      if (lane.expecting_body) {
        require(!flit->head, "Switch: head flit arrived mid-packet");
      } else {
        require(flit->head, "Switch: body flit arrived with no wormhole");
      }
      lane.expecting_body = !flit->tail;
      lane.fifo.push_back(*flit);
    }
    in.rx.end_cycle();
  }
}

std::uint64_t Switch::retransmissions() const {
  std::uint64_t total = 0;
  for (const OutputPort& out : outputs_) total += out.tx.retransmissions();
  return total;
}

std::uint64_t Switch::credit_stalls(std::uint64_t now) const {
  std::uint64_t total = 0;
  for (const OutputPort& out : outputs_) total += out.tx.credit_stalls(now);
  return total;
}

std::string Switch::debug_state() const {
  std::ostringstream os;
  os << name() << ":";
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    for (std::size_t v = 0; v < config_.vcs; ++v) {
      const InLane& lane = inputs_[i].lanes[v];
      if (lane.fifo.empty() && lane.locked_output == kNoPort) continue;
      os << " in" << i << "v" << v << "[" << lane.fifo.size();
      if (lane.locked_output != kNoPort) {
        os << "->o" << lane.locked_output << "v" << int(lane.locked_out_vc);
      }
      os << "]";
    }
  }
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    for (std::size_t v = 0; v < config_.vcs; ++v) {
      const OutLane& lane = outputs_[o].lanes[v];
      if (lane.fifo.empty() && lane.locked_input == kNoPort) continue;
      os << " out" << o << "v" << v << "[" << lane.fifo.size();
      if (lane.locked_input != kNoPort) {
        os << "<-i" << lane.locked_input << "v" << int(lane.locked_in_vc);
      }
      os << "]";
    }
    os << " tx" << o << "=" << outputs_[o].tx.in_flight();
  }
  return os.str();
}

bool Switch::idle() const {
  for (const InputPort& in : inputs_) {
    for (const InLane& lane : in.lanes) {
      if (!lane.fifo.empty() || lane.locked_output != kNoPort) return false;
    }
  }
  for (const OutputPort& out : outputs_) {
    if (!out.tx.idle()) return false;
    for (const OutLane& lane : out.lanes) {
      if (!lane.fifo.empty() || !lane.pipe.empty()) return false;
    }
  }
  return true;
}

// xlint: next-event-ok(the clock times delay-line entries, which keep the switch awake until they drain, and the senders' closed-form stall catch-up)
std::uint64_t Switch::next_event(std::uint64_t now) const {
  // Unlike idle(), a held wormhole lock, an unACKed-but-transmitted flit
  // or a starved credit sender is sleepable state: only an input-wire or
  // reverse-wire beat can move it along, both wake this module via the
  // endpoint watches, and a sender credits its slept-through stalls on
  // the next tick. Buffered flits, delay-line entries and arriving beats
  // need the next cycle.
  for (const InputPort& in : inputs_) {
    if (!in.rx.gate_idle()) return now + 1;
    for (const InLane& lane : in.lanes) {
      if (!lane.fifo.empty()) return now + 1;
    }
  }
  for (const OutputPort& out : outputs_) {
    if (!out.tx.gate_idle()) return now + 1;
    for (const OutLane& lane : out.lanes) {
      if (!lane.fifo.empty() || !lane.pipe.empty()) return now + 1;
    }
  }
  return sim::kNever;
}

}  // namespace xpl::switchlib
