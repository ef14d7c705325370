#include "src/ni/ni_initiator.hpp"

#include "src/common/error.hpp"

namespace xpl::ni {

void InitiatorConfig::validate() const {
  format.validate();
  require(format.beat_width <= 64,
          "InitiatorConfig: beat_width above 64 is not supported by the "
          "OCP data path");
  require(ocp_req_fifo >= 1, "InitiatorConfig: ocp_req_fifo >= 1");
  require(max_outstanding >= 1, "InitiatorConfig: max_outstanding >= 1");
  const std::size_t txn_space =
      std::size_t{1} << format.header.txn_bits;
  require(max_outstanding <= txn_space,
          "InitiatorConfig: max_outstanding exceeds txn id space");
  protocol.validate();
  require(vcs >= 1 && vcs <= link::kMaxVcs,
          "InitiatorConfig: vcs must be in [1, " +
              std::to_string(link::kMaxVcs) + "]");
  require(protocol.vcs == vcs,
          "InitiatorConfig: protocol lane count differs from vcs");
}

InitiatorNi::InitiatorNi(std::string name, const InitiatorConfig& config,
                         const ocp::OcpWires& ocp,
                         const link::LinkWires& net_out,
                         const link::LinkWires& net_in)
    : sim::Module(std::move(name)),
      config_(config),
      ocp_req_(ocp.req, config.ocp_req_fifo),
      ocp_resp_(ocp.resp, config.ocp_resp_credits),
      tx_(config.flow, net_out, config.protocol),
      rx_(config.flow, net_in, config.protocol) {
  config_.validate();
  // Wake sources: OCP request beats and response credits
  // from the core, ACK/credit returns and response flits from the network.
  ocp_req_.watch(*this);
  ocp_resp_.watch(*this);
  tx_.watch(*this);
  rx_.watch(*this);
  depack_.reserve(config_.vcs);
  for (std::size_t v = 0; v < config_.vcs; ++v) {
    depack_.emplace_back(config_.format);
  }
  // Steady-state bounds: flit_out_ holds one packetized request (a new
  // transaction starts only when it is empty); resp_out_ is capped by
  // resp_queue_depth plus the beats of the response(s) released by one
  // arrival. Both rings grow (once, deterministically) if a burst length
  // exceeds the estimate.
  flit_out_.reserve(config_.format.packet_flits(8));
  resp_out_.reserve(config_.resp_queue_depth + 8);
}

void InitiatorNi::start_packet(const ocp::ReqBeat& beat) {
  const auto hit = lut_.lookup(beat.addr);
  if (!hit.has_value()) {
    // No address window matches: answer ERR locally, never touching the
    // network (mirrors a decode error on a bus).
    ++lut_misses_;
    const std::uint32_t resp_beats =
        (beat.cmd == ocp::Cmd::kRead) ? beat.burst_len : 1;
    for (std::uint32_t i = 0; i < resp_beats; ++i) {
      ocp::RespBeat resp;
      resp.valid = true;
      resp.resp = ocp::Resp::kErr;
      resp.thread_id = beat.thread_id;
      resp.last = (i + 1 == resp_beats);
      resp_out_.push_back(resp);
    }
    return;
  }

  Building b;
  b.header.route.assign(hit->route.begin(), hit->route.end());
  switch (beat.cmd) {
    case ocp::Cmd::kWrite:
      b.header.cmd = PacketCmd::kWrite;
      break;
    case ocp::Cmd::kRead:
      b.header.cmd = PacketCmd::kRead;
      break;
    case ocp::Cmd::kWriteNp:
      b.header.cmd = PacketCmd::kWriteNp;
      break;
    case ocp::Cmd::kIdle:
      XPL_ASSERT(false);
  }
  b.header.src = config_.node_id;
  b.header.dst = hit->dst;
  b.header.thread_id = beat.thread_id;
  b.header.burst_len = beat.burst_len;
  b.header.burst_seq = static_cast<std::uint8_t>(beat.burst_seq);
  b.header.sideband = beat.sideband_flag;
  b.header.addr = hit->offset;

  if (beat.cmd == ocp::Cmd::kWrite) {
    b.header.txn_id = 0;  // posted: no response to match
  } else {
    b.header.txn_id = next_txn_;
    outstanding_[next_txn_] =
        Outstanding{beat.cmd, beat.burst_len, beat.thread_id};
    thread_order_[beat.thread_id].push_back(next_txn_);
    const std::uint32_t txn_mask =
        static_cast<std::uint32_t>((1u << config_.format.header.txn_bits) - 1);
    next_txn_ = (next_txn_ + 1) & txn_mask;
  }

  b.beats_needed = (beat.cmd == ocp::Cmd::kRead) ? 0 : beat.burst_len;
  if (b.beats_needed > 0) {
    BitVector data(config_.format.beat_width);
    data.deposit(0, std::min<std::size_t>(64, config_.format.beat_width),
                 beat.data);
    b.beats.push_back(std::move(data));
  }
  building_ = std::move(b);
  if (building_->beats.size() == building_->beats_needed) finish_packet();
}

void InitiatorNi::finish_packet() {
  XPL_ASSERT(building_.has_value());
  Packet packet;
  packet.header = building_->header;
  packet.beats = std::move(building_->beats);
  auto flits = packetize(packet, config_.format);
  // Whole packets ride one injection lane keyed by OCP thread: threads
  // are the protocol's ordering domain, so same-thread requests stay
  // FIFO on one lane while independent threads spread over the lanes
  // (vcs == 1: always lane 0, the seed behaviour).
  const std::uint8_t vc =
      static_cast<std::uint8_t>(packet.header.thread_id % config_.vcs);
  for (Flit& flit : flits) {
    flit.vc = vc;
    flit_out_.push_back(std::move(flit));
  }
  building_.reset();
  ++packets_sent_;
}

void InitiatorNi::deliver_response(const Packet& packet) {
  ++packets_received_;
  require(packet.header.cmd == PacketCmd::kResponse,
          "InitiatorNi: non-response packet arrived at initiator");
  auto it = outstanding_.find(packet.header.txn_id);
  require(it != outstanding_.end(),
          "InitiatorNi: response for unknown transaction");
  const std::uint32_t thread = it->second.thread_id;

  // OCP responses are in order within a thread; the network may complete
  // transactions out of order, so park early arrivals in the reorder
  // buffer until every older transaction of the thread has answered.
  reorder_.emplace(packet.header.txn_id, packet);
  auto order_it = thread_order_.find(thread);
  XPL_ASSERT(order_it != thread_order_.end());
  auto& order = order_it->second;
  while (!order.empty()) {
    const std::uint32_t txn = order.front();
    auto ready = reorder_.find(txn);
    if (ready == reorder_.end()) break;

    const Outstanding out = outstanding_.at(txn);
    const Packet& resp_packet = ready->second;
    const auto resp_code = static_cast<ocp::Resp>(resp_packet.header.resp);
    const std::uint32_t resp_beats =
        (out.cmd == ocp::Cmd::kRead) ? out.burst_len : 1;
    for (std::uint32_t i = 0; i < resp_beats; ++i) {
      ocp::RespBeat beat;
      beat.valid = true;
      beat.resp = resp_code;
      beat.thread_id = out.thread_id;
      beat.interrupt = resp_packet.header.interrupt;
      if (out.cmd == ocp::Cmd::kRead && i < resp_packet.beats.size()) {
        beat.data = resp_packet.beats[i].to_u64();
      }
      beat.last = (i + 1 == resp_beats);
      resp_out_.push_back(beat);
    }
    outstanding_.erase(txn);
    reorder_.erase(ready);
    order.pop_front();
  }
  if (order.empty()) thread_order_.erase(order_it);
}

void InitiatorNi::tick(sim::Kernel& kernel) {
  ocp_req_.begin_cycle();
  ocp_resp_.begin_cycle();
  tx_.begin_cycle(kernel.cycle());

  // Network transmit: one flit per cycle from the packetizer output.
  if (!flit_out_.empty() && tx_.can_accept(flit_out_.front().vc)) {
    tx_.accept(std::move(flit_out_.front()));
    flit_out_.pop_front();
  }

  // Packetization: consume at most one OCP request beat per cycle (the
  // header/payload registers are single datapath resources).
  if (!ocp_req_.empty()) {
    const ocp::ReqBeat beat = ocp_req_.front();
    XPL_ASSERT(beat.valid);
    if (building_.has_value()) {
      // Collect the next write burst beat.
      XPL_ASSERT(beat.beat_index == building_->beats.size());
      BitVector data(config_.format.beat_width);
      data.deposit(0, std::min<std::size_t>(64, config_.format.beat_width),
                   beat.data);
      building_->beats.push_back(std::move(data));
      ocp_req_.pop();
      if (building_->beats.size() == building_->beats_needed) {
        finish_packet();
      }
    } else {
      // A new transaction may start only when the packetizer is free, a
      // txn id slot is available, and the local response queue has room
      // for a potential LUT-miss reply.
      const bool txn_slot_free =
          beat.cmd == ocp::Cmd::kWrite ||
          (outstanding_.size() < config_.max_outstanding &&
           outstanding_.find(next_txn_) == outstanding_.end());
      if (flit_out_.empty() && txn_slot_free &&
          resp_out_.size() < config_.resp_queue_depth) {
        XPL_ASSERT(beat.beat_index == 0);
        ocp_req_.pop();
        start_packet(beat);
      }
    }
  }

  // Network receive: response flits reassemble into packets, one
  // reassembler per lane (any lane may be drained — the shared response
  // queue gates them all alike).
  const bool can_take = resp_out_.size() < config_.resp_queue_depth;
  const std::uint32_t take_mask =
      can_take ? (1u << config_.vcs) - 1 : 0u;
  if (const Flit* flit = rx_.begin_cycle(take_mask)) {
    XPL_ASSERT(flit->vc < config_.vcs);
    if (auto packet = depack_[flit->vc].push(*flit)) {
      deliver_response(*packet);
    }
  }

  // OCP response channel: one beat per cycle, credit permitting.
  if (!resp_out_.empty() && ocp_resp_.can_send()) {
    ocp_resp_.send(resp_out_.front());
    resp_out_.pop_front();
  }

  ocp_req_.end_cycle();
  ocp_resp_.end_cycle();
  tx_.end_cycle();
  rx_.end_cycle();
}

bool InitiatorNi::idle() const {
  for (const Depacketizer& d : depack_) {
    if (!d.idle()) return false;
  }
  return !building_.has_value() && flit_out_.empty() && resp_out_.empty() &&
         outstanding_.empty() && reorder_.empty() && tx_.idle() &&
         ocp_req_.empty();
}

std::uint64_t InitiatorNi::next_event(std::uint64_t now) const {
  // Deliberately weaker than idle(): outstanding_/reorder_/building_,
  // mid-packet depacketizers and a starved sender are sleepable
  // (input-driven) state.
  const bool asleep = ocp_req_.empty() && flit_out_.empty() &&
                      resp_out_.empty() && ocp_req_.gate_idle() &&
                      ocp_resp_.gate_idle() && tx_.gate_idle() &&
                      rx_.gate_idle();
  return asleep ? sim::kNever : now + 1;
}

}  // namespace xpl::ni
