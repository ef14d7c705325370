#include "src/switchlib/switch.hpp"

#include <bit>
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
  words_ = mask_words(config.num_inputs * config_.vcs);
  req_.assign(config.num_outputs * words_, 0);
  fresh_.assign(words_, 0);
  candidates_.assign(words_, 0);
  in_busy_.assign(config.num_inputs, 0);
  out_busy_.assign(config.num_outputs, 0);
  out_locked_.assign(config.num_outputs, 0);
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

void Switch::post_request(std::size_t input, std::size_t v) {
  const std::size_t req = requested_output(inputs_[input].lanes[v]);
  if (req == kNoPort) return;
  mask_set({&req_[req * words_], words_}, input * config_.vcs + v);
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
      config_.output_dateline[out_port] != 0) {
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
  // make at the end of the tick. A port with nothing queued whose sender
  // is gate-idle would do nothing at all: it is skipped, and a credit
  // sender counts the skipped cycles' stalls on its next begin_cycle, as
  // it does across a sleep.
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    OutputPort& out = outputs_[o];
    if (out_busy_[o] == 0 && out.tx.gate_idle()) continue;
    out.tx.begin_cycle(now);
    std::size_t v = out.next_tx_lane;
    for (std::size_t k = 0; k < vcs; ++k, v = next_lane(v, vcs)) {
      OutLane& lane = out.lanes[v];
      if (lane.fifo.empty() || !out.tx.can_accept(v)) continue;
      out.tx.accept(std::move(lane.fifo.front()));
      lane.fifo.pop_front();
      if (lane.fifo.empty() && lane.pipe.empty()) {
        out_busy_[o] &= ~(1u << v);
      }
      out.next_tx_lane = next_lane(v, vcs);
      break;
    }
    out.tx.end_cycle();
  }

  // Extra pipeline stages (old-xpipes emulation): release delay-line
  // entries that have spent extra_pipeline cycles in flight.
  if (config_.extra_pipeline > 0) {
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
      if (out_busy_[o] == 0) continue;
      for (OutLane& lane : outputs_[o].lanes) {
        if (!lane.pipe.empty() &&
            now >= lane.pipe.front().second + config_.extra_pipeline) {
          lane.fifo.push_back(std::move(lane.pipe.front().first));
          lane.pipe.pop_front();
        }
      }
    }
  }

  // Stage 2: VC allocation + switch allocation + crossbar traversal. The
  // lanes a flit landed in last cycle post their requests first; every
  // other slot's request is already in req_. An output with no locked
  // winner arbitrates over its request mask only. A lane's request is
  // recomputed when a flit leaves it, so a tail followed by the next head
  // can still win a later output this cycle, never an earlier one. One
  // flit traverses the crossbar per output per cycle.
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = fresh_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t slot =
          w * kMaskWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      post_request(slot / vcs, slot % vcs);
    }
    fresh_[w] = 0;
  }
  bool any_switched = false;
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    OutputPort& out = outputs_[o];

    std::size_t win_in = kNoPort;  // winning input port
    std::uint8_t win_iv = 0;       // its lane
    std::uint8_t win_ov = 0;       // output lane taken

    // In-progress wormholes first (lanes rotate for fairness; at vcs == 1
    // this is the seed's locked-input bypass, arbiter untouched).
    const std::uint32_t locked = out_locked_[o];
    std::size_t w = out.next_locked_lane;
    for (std::size_t k = 0; locked != 0 && k < vcs;
         ++k, w = next_lane(w, vcs)) {
      if ((locked >> w & 1u) == 0) continue;
      OutLane& ol = out.lanes[w];
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

    if (win_in == kNoPort) {
      // New wormholes: arbitrate over the requesting slots whose
      // allocated output lane is free with space.
      const std::span<std::uint64_t> req{&req_[o * words_], words_};
      bool any = false;
      for (std::size_t k = 0; k < words_; ++k) {
        std::uint64_t wants = 0;
        for (std::uint64_t bits = req[k]; bits != 0; bits &= bits - 1) {
          const int b = std::countr_zero(bits);
          const std::size_t slot =
              k * kMaskWordBits + static_cast<std::size_t>(b);
          const std::uint8_t ov =
              out_vc(slot / vcs, static_cast<std::uint8_t>(slot % vcs), o);
          const OutLane& ol = out.lanes[ov];
          if (ol.locked_input == kNoPort &&
              ol.fifo.size() + ol.pipe.size() < config_.output_fifo_depth) {
            wants |= std::uint64_t{1} << b;
          }
        }
        candidates_[k] = wants;
        any = any || wants != 0;
      }
      if (any) {
        const auto grant = out.arbiter.grant(candidates_);
        XPL_ASSERT(grant.has_value());
        mask_clear(req, *grant);
        win_in = *grant / vcs;
        win_iv = static_cast<std::uint8_t>(*grant % vcs);
        win_ov = out_vc(win_in, win_iv, o);
        OutLane& ol = out.lanes[win_ov];
        ol.locked_input = win_in;
        ol.locked_in_vc = win_iv;
        out_locked_[o] |= 1u << win_ov;
        InLane& il = inputs_[win_in].lanes[win_iv];
        il.locked_output = o;
        il.locked_out_vc = win_ov;
        ++packets_out_[o];
      }
    }

    if (win_in == kNoPort) continue;
    InLane& il = inputs_[win_in].lanes[win_iv];
    OutLane& ol = out.lanes[win_ov];
    // The flit is rewritten in place at the input lane's front, then
    // moved once into the output lane.
    Flit& flit = il.fifo.front();
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
      out_locked_[o] &= ~(1u << win_ov);
    }
    if (config_.extra_pipeline > 0) {
      ol.pipe.emplace_back(std::move(flit), now);
    } else {
      ol.fifo.push_back(std::move(flit));
    }
    il.fifo.pop_front();
    if (il.fifo.empty()) in_busy_[win_in] &= ~(1u << win_iv);
    out_busy_[o] |= 1u << win_ov;
    // The input lane's head flit changed (and possibly its lock state):
    // post its request for the outputs still to come this cycle.
    post_request(win_in, win_iv);
    ++flits_switched_;
    any_switched = true;
  }
  if (any_switched) ++active_cycles_;

  // Stage 1: latch arriving flits into their lane's input buffer; each
  // receiver then drives its ACK/nACK / credit wire. A gate-idle receiver
  // has no flit to hand over and no wire to drive: its port is skipped.
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    InputPort& in = inputs_[i];
    if (in.rx.gate_idle()) continue;
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
      if (lane.fifo.empty()) {
        // The lane's front changes: its request is posted next cycle.
        in_busy_[i] |= 1u << flit->vc;
        mask_set(fresh_, i * vcs + flit->vc);
      }
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
  // A wormhole lock is held at both ends at once, so the output lock
  // masks cover the input lanes' locks too.
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (in_busy_[i] != 0) return false;
  }
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    if (out_busy_[o] != 0 || out_locked_[o] != 0 || !outputs_[o].tx.idle()) {
      return false;
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
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (in_busy_[i] != 0 || !inputs_[i].rx.gate_idle()) return now + 1;
  }
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    if (out_busy_[o] != 0 || !outputs_[o].tx.gate_idle()) return now + 1;
  }
  return sim::kNever;
}

}  // namespace xpl::switchlib
