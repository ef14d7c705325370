#include "src/ni/ni_target.hpp"

#include "src/common/error.hpp"

namespace xpl::ni {

void TargetConfig::validate() const {
  format.validate();
  require(format.beat_width <= 64,
          "TargetConfig: beat_width above 64 is not supported by the OCP "
          "data path");
  require(job_queue_depth >= 1, "TargetConfig: job_queue_depth >= 1");
  protocol.validate();
  require(vcs >= 1 && vcs <= link::kMaxVcs,
          "TargetConfig: vcs must be in [1, " +
              std::to_string(link::kMaxVcs) + "]");
  require(protocol.vcs == vcs,
          "TargetConfig: protocol lane count differs from vcs");
}

TargetNi::TargetNi(std::string name, const TargetConfig& config,
                   const ocp::OcpWires& ocp, const link::LinkWires& net_in,
                   const link::LinkWires& net_out)
    : sim::Module(std::move(name)),
      config_(config),
      rx_(config.flow, net_in, config.protocol),
      tx_(config.flow, net_out, config.protocol),
      ocp_req_(ocp.req, config.ocp_req_credits),
      ocp_resp_(ocp.resp, config.ocp_resp_fifo) {
  config_.validate();
  // Wake sources: request flits and ACK/credit returns
  // from the network, response beats and request credits from the core.
  rx_.watch(*this);
  tx_.watch(*this);
  ocp_req_.watch(*this);
  ocp_resp_.watch(*this);
  depack_.reserve(config_.vcs);
  for (std::size_t v = 0; v < config_.vcs; ++v) {
    depack_.emplace_back(config_.format);
  }
  jobs_.reserve(config_.job_queue_depth);  // rx_ can_take bounds it
  // One packetized response in flight (complete_response fires only when
  // flit_out_ has drained); grows once if a longer burst shows up.
  flit_out_.reserve(config_.format.packet_flits(8));
}

void TargetNi::complete_response(RespBuild build) {
  const std::optional<RouteBytes> route = lut_.route_to(build.meta.src);
  require(route.has_value(), "TargetNi: no response route for source");
  Packet packet;
  packet.header.route.assign(route->begin(), route->end());
  packet.header.cmd = PacketCmd::kResponse;
  packet.header.src = config_.node_id;
  packet.header.dst = build.meta.src;
  packet.header.txn_id = build.meta.txn_id;
  packet.header.thread_id = build.meta.thread_id;
  packet.header.burst_len =
      static_cast<std::uint32_t>(build.beats.size());
  packet.header.resp = build.resp;
  packet.header.interrupt = build.interrupt;
  packet.beats = std::move(build.beats);
  auto flits = packetize(packet, config_.format);
  // Responses take the lane of their OCP thread, mirroring the
  // initiator's request lane assignment.
  const std::uint8_t vc =
      static_cast<std::uint8_t>(build.meta.thread_id % config_.vcs);
  for (Flit& flit : flits) {
    flit.vc = vc;
    flit_out_.push_back(std::move(flit));
  }
  ++packets_sent_;
}

void TargetNi::tick(sim::Kernel& kernel) {
  tx_.begin_cycle(kernel.cycle());
  ocp_req_.begin_cycle();
  ocp_resp_.begin_cycle();

  // Network transmit: drain the response packetizer.
  if (!flit_out_.empty() && tx_.can_accept(flit_out_.front().vc)) {
    tx_.accept(std::move(flit_out_.front()));
    flit_out_.pop_front();
  }

  // OCP response side: collect beats from the slave core. The per-thread
  // pending queue identifies which network transaction each beat answers.
  while (!ocp_resp_.empty()) {
    const ocp::RespBeat beat = ocp_resp_.front();
    ocp_resp_.pop();
    XPL_ASSERT(beat.valid);
    auto pending_it = pending_.find(beat.thread_id);
    require(pending_it != pending_.end() && !pending_it->second.empty(),
            "TargetNi: response beat with no pending request");
    auto build_it = collecting_.find(beat.thread_id);
    if (build_it == collecting_.end()) {
      RespBuild build;
      build.meta = pending_it->second.front();
      build_it = collecting_.emplace(beat.thread_id, std::move(build)).first;
    }
    RespBuild& build = build_it->second;
    build.resp = static_cast<std::uint8_t>(beat.resp);
    build.interrupt = build.interrupt || beat.interrupt;
    if (build.meta.cmd == PacketCmd::kRead) {
      BitVector data(config_.format.beat_width);
      data.deposit(0, std::min<std::size_t>(64, config_.format.beat_width),
                   beat.data);
      build.beats.push_back(std::move(data));
    }
    if (beat.last) {
      pending_it->second.pop_front();
      if (pending_it->second.empty()) pending_.erase(pending_it);
      RespBuild done = std::move(build_it->second);
      collecting_.erase(build_it);
      complete_response(std::move(done));
    }
  }

  // OCP request side: replay the next decoded packet beat by beat.
  //
  // Single-lane networks keep the seed's conservative gate: the next job
  // issues only once the previous response has fully left (flit_out_
  // holds at most one packetized response). Multi-lane networks drop the
  // gate — the job queue then drains at the slave's rate even while
  // response injection is back-pressured, which breaks the
  // request-reply coupling cycle (target ejection waiting on response
  // injection waiting on channels held by requests waiting on target
  // ejection) that can wedge a saturated shared-lane network. The
  // response staging this pipelining needs is bounded by protocol
  // invariant: every response-expecting request holds one of its
  // initiator's max_outstanding txn slots, so at most
  // sum(max_outstanding) responses can ever be pending at one target.
  const bool response_drained = config_.vcs == 1 ? flit_out_.empty() : true;
  if (!issuing_.has_value() && !jobs_.empty() && response_drained) {
    issuing_ = std::move(jobs_.front());
    jobs_.pop_front();
    issue_beat_ = 0;
  }
  if (issuing_.has_value() && ocp_req_.can_send()) {
    const Packet& packet = *issuing_;
    const Header& h = packet.header;
    ocp::ReqBeat beat;
    beat.valid = true;
    switch (h.cmd) {
      case PacketCmd::kWrite:
        beat.cmd = ocp::Cmd::kWrite;
        break;
      case PacketCmd::kRead:
        beat.cmd = ocp::Cmd::kRead;
        break;
      case PacketCmd::kWriteNp:
        beat.cmd = ocp::Cmd::kWriteNp;
        break;
      case PacketCmd::kResponse:
        XPL_ASSERT(false);  // filtered at depacketization
    }
    beat.addr = h.addr;
    beat.burst_len = h.burst_len;
    beat.burst_seq = static_cast<ocp::BurstSeq>(h.burst_seq);
    beat.beat_index = issue_beat_;
    beat.thread_id = h.thread_id;
    beat.sideband_flag = h.sideband;
    if (h.cmd != PacketCmd::kRead) {
      XPL_ASSERT(issue_beat_ < packet.beats.size());
      beat.data = packet.beats[issue_beat_].to_u64();
    }
    ocp_req_.send(beat);
    ++issue_beat_;
    const std::uint32_t req_beats =
        (h.cmd == PacketCmd::kRead) ? 1 : h.burst_len;
    if (issue_beat_ == req_beats) {
      if (h.cmd != PacketCmd::kWrite) {
        pending_[h.thread_id].push_back(
            PendingResp{h.src, h.txn_id, h.thread_id, h.cmd, h.burst_len});
      }
      issuing_.reset();
    }
  }

  // Network receive: depacketize request flits, any lane (the shared job
  // queue gates every lane alike).
  const bool can_take = jobs_.size() < config_.job_queue_depth;
  const std::uint32_t take_mask =
      can_take ? (1u << config_.vcs) - 1 : 0u;
  if (const Flit* flit = rx_.begin_cycle(take_mask)) {
    XPL_ASSERT(flit->vc < config_.vcs);
    if (auto packet = depack_[flit->vc].push(*flit)) {
      require(packet->header.cmd != PacketCmd::kResponse,
              "TargetNi: response packet arrived at target");
      ++packets_received_;
      jobs_.push_back(std::move(*packet));
    }
  }

  tx_.end_cycle();
  rx_.end_cycle();
  ocp_req_.end_cycle();
  ocp_resp_.end_cycle();
}

bool TargetNi::idle() const {
  for (const Depacketizer& d : depack_) {
    if (!d.idle()) return false;
  }
  return jobs_.empty() && !issuing_.has_value() && pending_.empty() &&
         collecting_.empty() && flit_out_.empty() && tx_.idle() &&
         ocp_resp_.empty();
}

std::uint64_t TargetNi::next_event(std::uint64_t now) const {
  // Deliberately weaker than idle(): pending_/collecting_, mid-packet
  // depacketizers and a starved sender are sleepable (input-driven)
  // state.
  const bool asleep = jobs_.empty() && !issuing_.has_value() &&
                      ocp_resp_.empty() && flit_out_.empty() &&
                      rx_.gate_idle() && tx_.gate_idle() &&
                      ocp_req_.gate_idle() && ocp_resp_.gate_idle();
  return asleep ? sim::kNever : now + 1;
}

}  // namespace xpl::ni
