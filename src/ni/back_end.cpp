#include "src/ni/back_end.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace xpl::ni {

void PortConfig::validate(const std::string& who) const {
  format.validate();
  require(format.beat_width <= 64,
          who + ": beat_width above 64 is not supported by the OCP data "
                "path");
  // Also bounds the lane count to [1, kMaxVcs].
  protocol.validate();
}

BackEnd::BackEnd(const PortConfig& config, const link::LinkWires& net_out,
                 const link::LinkWires& net_in)
    : format_(config.format),
      lanes_(static_cast<std::uint32_t>(config.protocol.vcs)),
      tx_(config.flow, net_out, config.protocol),
      rx_(config.flow, net_in, config.protocol) {
  depack_.reserve(lanes_);
  for (std::uint32_t v = 0; v < lanes_; ++v) depack_.emplace_back(format_);
  // Sized for one packetized 8-beat packet; grows (once,
  // deterministically) if more is ever queued.
  flit_out_.reserve(format_.packet_flits(8));
}

void BackEnd::watch(sim::Module& owner) {
  tx_.watch(owner);
  rx_.watch(owner);
}

void BackEnd::transmit() {
  if (!flit_out_.empty() && tx_.can_accept(flit_out_.front().vc)) {
    tx_.accept(std::move(flit_out_.front()));
    flit_out_.pop_front();
  }
}

void BackEnd::send(Packet&& packet) {
  auto flits = packetize(packet, format_);
  const auto vc = static_cast<std::uint8_t>(packet.header.thread_id % lanes_);
  for (Flit& flit : flits) {
    flit.vc = vc;
    flit_out_.push_back(std::move(flit));
  }
  ++packets_sent_;
}

std::optional<Packet> BackEnd::receive(bool can_take) {
  const std::uint32_t take_mask = can_take ? (1u << lanes_) - 1 : 0u;
  if (const Flit* flit = rx_.begin_cycle(take_mask)) {
    XPL_ASSERT(flit->vc < lanes_);
    if (auto packet = depack_[flit->vc].push(*flit)) {
      ++packets_received_;
      return packet;
    }
  }
  return std::nullopt;
}

bool BackEnd::idle() const {
  return flit_out_.empty() && tx_.idle() &&
         std::all_of(depack_.begin(), depack_.end(),
                     [](const Depacketizer& d) { return d.idle(); });
}

PacketCmd to_packet_cmd(ocp::Cmd cmd) {
  XPL_ASSERT(cmd != ocp::Cmd::kIdle);
  return cmd == ocp::Cmd::kWrite  ? PacketCmd::kWrite
         : cmd == ocp::Cmd::kRead ? PacketCmd::kRead
                                  : PacketCmd::kWriteNp;
}

ocp::Cmd to_ocp_cmd(PacketCmd cmd) {
  XPL_ASSERT(cmd != PacketCmd::kResponse);
  return cmd == PacketCmd::kWrite  ? ocp::Cmd::kWrite
         : cmd == PacketCmd::kRead ? ocp::Cmd::kRead
                                   : ocp::Cmd::kWriteNp;
}

BitVector to_beat(std::uint64_t data, const PacketFormat& format) {
  BitVector beat(format.beat_width);
  beat.deposit(0, std::min<std::size_t>(64, format.beat_width), data);
  return beat;
}

}  // namespace xpl::ni
