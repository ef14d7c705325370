#include "src/ni/ni_initiator.hpp"

#include "src/common/error.hpp"

namespace xpl::ni {

void InitiatorConfig::validate() const {
  PortConfig::validate("InitiatorConfig");
  require(ocp_req_fifo >= 1, "InitiatorConfig: ocp_req_fifo >= 1");
  require(max_outstanding >= 1, "InitiatorConfig: max_outstanding >= 1");
  const std::size_t txn_space =
      std::size_t{1} << format.header.txn_bits;
  require(max_outstanding <= txn_space,
          "InitiatorConfig: max_outstanding exceeds txn id space");
}

InitiatorNi::InitiatorNi(std::string name, const InitiatorConfig& config,
                         const ocp::OcpWires& ocp,
                         const link::LinkWires& net_out,
                         const link::LinkWires& net_in)
    : sim::Module(std::move(name)),
      config_(config),
      ocp_req_(ocp.req, config.ocp_req_fifo),
      ocp_resp_(ocp.resp, config.ocp_resp_credits),
      back_(config, net_out, net_in) {
  config_.validate();
  // Wake sources: OCP request beats and response credits
  // from the core, ACK/credit returns and response flits from the network.
  ocp_req_.watch(*this);
  ocp_resp_.watch(*this);
  back_.watch(*this);
  // resp_out_ is capped by resp_queue_depth plus the beats of the
  // response(s) released by one arrival; it grows (once,
  // deterministically) if a burst length exceeds the estimate.
  resp_out_.reserve(config_.resp_queue_depth + 8);
  outstanding_.resize(std::size_t{1} << config_.format.header.txn_bits);
  thread_order_.resize(std::size_t{1} << config_.format.header.thread_bits);
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
  b.header.cmd = to_packet_cmd(beat.cmd);
  b.header.src = config_.node_id;
  b.header.dst = hit->dst;
  b.header.thread_id = beat.thread_id;
  b.header.burst_len = beat.burst_len;
  b.header.burst_seq = static_cast<std::uint8_t>(beat.burst_seq);
  b.header.sideband = beat.sideband_flag;
  b.header.addr = hit->offset;
  // Posted writes expect no response, so they take no txn id.
  b.header.txn_id = beat.cmd == ocp::Cmd::kWrite ? 0 : next_txn_;

  b.beats_needed = (beat.cmd == ocp::Cmd::kRead) ? 0 : beat.burst_len;
  if (b.beats_needed > 0) b.beats.push_back(to_beat(beat.data, config_.format));
  building_ = std::move(b);
  if (building_->beats.size() == building_->beats_needed) finish_packet();
}

void InitiatorNi::finish_packet() {
  XPL_ASSERT(building_.has_value());
  Packet packet{std::move(building_->header), std::move(building_->beats)};
  building_.reset();
  const Header& h = packet.header;
  Outstanding out{h.cmd, h.burst_len, h.thread_id, {}};
  const std::uint32_t txn = h.txn_id;
  // Packetizing first lets pack_header reject an out-of-range thread id
  // before it can index thread_order_.
  back_.send(std::move(packet));
  if (out.cmd == PacketCmd::kWrite) return;
  // No other transaction starts while this one builds, so recording it
  // only now is indistinguishable from recording it at its first beat.
  thread_order_[out.thread_id].push_back(txn);
  outstanding_[txn] = std::move(out);
  ++outstanding_count_;
  const std::uint32_t txn_mask =
      static_cast<std::uint32_t>((1u << config_.format.header.txn_bits) - 1);
  next_txn_ = (next_txn_ + 1) & txn_mask;
}

void InitiatorNi::deliver_response(Packet&& packet) {
  require(packet.header.cmd == PacketCmd::kResponse,
          "InitiatorNi: non-response packet arrived at initiator");
  // The txn field is txn_bits wide, so the id always indexes the table.
  std::optional<Outstanding>& slot = outstanding_[packet.header.txn_id];
  require(slot.has_value(), "InitiatorNi: response for unknown transaction");

  // OCP responses are in order within a thread; the network may complete
  // transactions out of order, so park early arrivals in their slot until
  // every older transaction of the thread has answered.
  slot->response = std::move(packet);
  Ring<std::uint32_t>& order = thread_order_[slot->thread_id];
  while (!order.empty()) {
    std::optional<Outstanding>& ready = outstanding_[order.front()];
    if (!ready->response.has_value()) break;

    const Outstanding& out = *ready;
    const Packet& resp_packet = *out.response;
    const auto resp_code = static_cast<ocp::Resp>(resp_packet.header.resp);
    const std::uint32_t resp_beats =
        (out.cmd == PacketCmd::kRead) ? out.burst_len : 1;
    for (std::uint32_t i = 0; i < resp_beats; ++i) {
      ocp::RespBeat beat;
      beat.valid = true;
      beat.resp = resp_code;
      beat.thread_id = out.thread_id;
      beat.interrupt = resp_packet.header.interrupt;
      if (out.cmd == PacketCmd::kRead && i < resp_packet.beats.size()) {
        beat.data = resp_packet.beats[i].to_u64();
      }
      beat.last = (i + 1 == resp_beats);
      resp_out_.push_back(beat);
    }
    ready.reset();
    --outstanding_count_;
    order.pop_front();
  }
}

void InitiatorNi::tick(sim::Kernel& kernel) {
  ocp_req_.begin_cycle();
  ocp_resp_.begin_cycle();
  back_.begin_cycle(kernel.cycle());

  // Network transmit: one flit per cycle from the packetizer output.
  back_.transmit();

  // Packetization: consume at most one OCP request beat per cycle (the
  // header/payload registers are single datapath resources).
  if (!ocp_req_.empty()) {
    const ocp::ReqBeat beat = ocp_req_.front();
    XPL_ASSERT(beat.valid);
    if (building_.has_value()) {
      // Collect the next write burst beat.
      XPL_ASSERT(beat.beat_index == building_->beats.size());
      building_->beats.push_back(to_beat(beat.data, config_.format));
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
          (outstanding_count_ < config_.max_outstanding &&
           !outstanding_[next_txn_].has_value());
      if (back_.outbound_empty() && txn_slot_free &&
          resp_out_.size() < config_.resp_queue_depth) {
        XPL_ASSERT(beat.beat_index == 0);
        ocp_req_.pop();
        start_packet(beat);
      }
    }
  }

  // Network receive: response packets from any lane (the shared response
  // queue gates them all alike).
  if (auto packet =
          back_.receive(resp_out_.size() < config_.resp_queue_depth)) {
    deliver_response(std::move(*packet));
  }

  // OCP response channel: one beat per cycle, credit permitting.
  if (!resp_out_.empty() && ocp_resp_.can_send()) {
    ocp_resp_.send(resp_out_.front());
    resp_out_.pop_front();
  }

  ocp_req_.end_cycle();
  ocp_resp_.end_cycle();
  back_.end_cycle();
}

bool InitiatorNi::idle() const {
  // A parked response always belongs to a live outstanding slot.
  return !building_.has_value() && resp_out_.empty() &&
         outstanding_count_ == 0 && ocp_req_.empty() && back_.idle();
}

std::uint64_t InitiatorNi::next_event(std::uint64_t now) const {
  // Deliberately weaker than idle(): outstanding_/building_ and the back
  // end's mid-packet reassembly and starved sender are sleepable
  // (input-driven) state.
  const bool asleep = ocp_req_.empty() && resp_out_.empty() &&
                      ocp_req_.gate_idle() && ocp_resp_.gate_idle() &&
                      back_.asleep();
  return asleep ? sim::kNever : now + 1;
}

}  // namespace xpl::ni
