#include "src/ni/ni_target.hpp"

#include "src/common/error.hpp"

namespace xpl::ni {

void TargetConfig::validate() const {
  PortConfig::validate("TargetConfig");
  require(job_queue_depth >= 1, "TargetConfig: job_queue_depth >= 1");
}

TargetNi::TargetNi(std::string name, const TargetConfig& config,
                   const ocp::OcpWires& ocp, const link::LinkWires& net_in,
                   const link::LinkWires& net_out)
    : sim::Module(std::move(name)),
      config_(config),
      back_(config, net_out, net_in),
      ocp_req_(ocp.req, config.ocp_req_credits),
      ocp_resp_(ocp.resp, config.ocp_resp_fifo) {
  config_.validate();
  // Wake sources: request flits and ACK/credit returns
  // from the network, response beats and request credits from the core.
  back_.watch(*this);
  ocp_req_.watch(*this);
  ocp_resp_.watch(*this);
  jobs_.reserve(config_.job_queue_depth);  // receive()'s can_take bounds it
  const std::size_t threads = std::size_t{1}
                              << config_.format.header.thread_bits;
  pending_.resize(threads);
  collecting_.resize(threads);
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
  back_.send(std::move(packet));
}

void TargetNi::tick(sim::Kernel& kernel) {
  back_.begin_cycle(kernel.cycle());
  ocp_req_.begin_cycle();
  ocp_resp_.begin_cycle();

  // Network transmit: drain the response packetizer.
  back_.transmit();

  // OCP response side: collect beats from the slave core. The per-thread
  // pending queue identifies which network transaction each beat answers.
  while (!ocp_resp_.empty()) {
    const ocp::RespBeat beat = ocp_resp_.front();
    ocp_resp_.pop();
    XPL_ASSERT(beat.valid);
    require(beat.thread_id < pending_.size() &&
                !pending_[beat.thread_id].empty(),
            "TargetNi: response beat with no pending request");
    Ring<PendingResp>& pending = pending_[beat.thread_id];
    std::optional<RespBuild>& build = collecting_[beat.thread_id];
    if (!build.has_value()) build = RespBuild{pending.front(), 0, false, {}};
    build->resp = static_cast<std::uint8_t>(beat.resp);
    build->interrupt = build->interrupt || beat.interrupt;
    if (build->meta.cmd == PacketCmd::kRead) {
      build->beats.push_back(to_beat(beat.data, config_.format));
    }
    if (beat.last) {
      pending.pop_front();
      --pending_count_;
      RespBuild done = std::move(*build);
      build.reset();
      complete_response(std::move(done));
    }
  }

  // OCP request side: replay the next decoded packet beat by beat.
  //
  // Single-lane networks keep the seed's conservative gate: the next job
  // issues only once the previous response has fully left (the outbound
  // queue holds at most one packetized response). Multi-lane networks
  // drop the gate — the job queue then drains at the slave's rate even
  // while response injection is back-pressured, which breaks the
  // request-reply coupling cycle (target ejection waiting on response
  // injection waiting on channels held by requests waiting on target
  // ejection) that can wedge a saturated shared-lane network. The
  // response staging this pipelining needs is bounded by protocol
  // invariant: every response-expecting request holds one of its
  // initiator's max_outstanding txn slots, so at most
  // sum(max_outstanding) responses can ever be pending at one target.
  const bool response_drained =
      config_.protocol.vcs == 1 ? back_.outbound_empty() : true;
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
    beat.cmd = to_ocp_cmd(h.cmd);  // responses never reach the job queue
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
        // The thread field is thread_bits wide, so the id always indexes.
        pending_[h.thread_id].push_back(
            PendingResp{h.src, h.txn_id, h.thread_id, h.cmd, h.burst_len});
        ++pending_count_;
      }
      issuing_.reset();
    }
  }

  // Network receive: request packets from any lane (the shared job queue
  // gates every lane alike).
  if (auto packet = back_.receive(jobs_.size() < config_.job_queue_depth)) {
    require(packet->header.cmd != PacketCmd::kResponse,
            "TargetNi: response packet arrived at target");
    jobs_.push_back(std::move(*packet));
  }

  back_.end_cycle();
  ocp_req_.end_cycle();
  ocp_resp_.end_cycle();
}

bool TargetNi::idle() const {
  // A collecting slot is set only while its thread has a pending request.
  return jobs_.empty() && !issuing_.has_value() && pending_count_ == 0 &&
         ocp_resp_.empty() && back_.idle();
}

std::uint64_t TargetNi::next_event(std::uint64_t now) const {
  // Deliberately weaker than idle(): pending_/collecting_ and the back
  // end's mid-packet reassembly and starved sender are sleepable
  // (input-driven) state.
  const bool asleep = jobs_.empty() && !issuing_.has_value() &&
                      ocp_resp_.empty() && back_.asleep() &&
                      ocp_req_.gate_idle() && ocp_resp_.gate_idle();
  return asleep ? sim::kNever : now + 1;
}

}  // namespace xpl::ni
