#include "src/link/goback_n.hpp"

#include "src/common/error.hpp"

namespace xpl::link {

ProtocolConfig ProtocolConfig::for_link(std::size_t stages, CrcKind crc) {
  ProtocolConfig config;
  // One kernel register at each end plus `stages` relays per direction,
  // plus a couple of cycles of endpoint processing.
  config.window = 2 * (stages + 1) + 4;
  config.seq_bits = bits_for(2 * config.window);
  config.crc = crc;
  config.validate();
  return config;
}

void ProtocolConfig::validate() const {
  require(window >= 1, "ProtocolConfig: window must be >= 1");
  require(seq_bits >= 1 && seq_bits <= 8,
          "ProtocolConfig: seq_bits must be in [1,8]");
  // Go-back-N correctness: sequence space must exceed the window so a
  // stale retransmission can never alias a new flit.
  require((std::size_t{1} << seq_bits) > window,
          "ProtocolConfig: sequence space must exceed window");
  require(vcs >= 1 && vcs <= kMaxVcs,
          "ProtocolConfig: vcs must be in [1, " + std::to_string(kMaxVcs) +
              "]");
}

GoBackNSender::GoBackNSender(LinkWires wires, const ProtocolConfig& config)
    : wires_(wires),
      config_(config),
      seq_mask_(static_cast<std::uint8_t>((1u << config.seq_bits) - 1)) {
  config_.validate();
  lanes_.resize(config_.vcs);
  for (Lane& lane : lanes_) {
    lane.buffer.reserve(config_.window);  // can_accept bounds it at window
  }
}

void GoBackNSender::process_ack(const AckBeat& ack) {
  XPL_ASSERT(ack.vc < lanes_.size());
  Lane& lane = lanes_[ack.vc];
  if (lane.buffer.empty()) return;
  const std::uint8_t base = lane.buffer.front().flit.seqno;
  const std::uint8_t offset = (ack.seqno - base) & seq_mask_;
  if (ack.ack) {
    // Receivers acknowledge a lane's flits in order, one per cycle, so a
    // live ACK always names the lane's oldest unacknowledged flit;
    // anything else is a stale duplicate from before a rewind and is
    // ignored.
    if (offset == 0) {
      lane.buffer.pop_front();
      if (lane.resend_idx > 0) --lane.resend_idx;
    }
  } else {
    // nACK(seq): receiver wants everything on this lane from `seq` again.
    if (offset < lane.buffer.size()) {
      lane.resend_idx = offset;
    }
  }
}

void GoBackNSender::accept(Flit&& flit) {
  XPL_ASSERT(can_accept(flit.vc));
  Lane& lane = lanes_[flit.vc];
  flit.seqno = lane.next_seq;
  lane.next_seq = (lane.next_seq + 1) & seq_mask_;
  // Seal once on entry: the buffered flit is immutable until retired, so
  // retransmissions reuse the same checksum instead of recomputing it.
  flit_seal(flit, config_.crc);
  lane.buffer.push_back(Entry{std::move(flit), /*sent=*/false});
}

void GoBackNSender::transmit() {
  // One physical flit per cycle: serve lanes with pending (re)transmit
  // work round-robin from next_lane_.
  std::size_t v = next_lane_;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    Lane& lane = lanes_[v];
    const std::size_t next = v + 1 == lanes_.size() ? 0 : v + 1;
    if (lane.resend_idx < lane.buffer.size()) {
      Entry& entry = lane.buffer[lane.resend_idx];
      if (entry.sent) {
        ++retransmissions_;
      } else {
        entry.sent = true;
      }
      wires_.fwd->write(FlitBeat{true, entry.flit});
      fwd_dirty_ = true;
      ++lane.resend_idx;
      ++flits_sent_;
      next_lane_ = next;
      return;
    }
    v = next;
  }
  // Write-on-change: drive the wire idle once after the last valid beat.
  XPL_ASSERT(fwd_dirty_);
  wires_.fwd->write(FlitBeat{});
  fwd_dirty_ = false;
}

std::size_t GoBackNSender::in_flight() const {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.buffer.size();
  return total;
}

bool GoBackNSender::gate_idle() const {
  return !fwd_dirty_ && !any_pending() && !wires_.rev->read().valid;
}

GoBackNReceiver::GoBackNReceiver(LinkWires wires,
                                 const ProtocolConfig& config)
    : wires_(wires),
      config_(config),
      seq_mask_(static_cast<std::uint8_t>((1u << config.seq_bits) - 1)) {
  config_.validate();
  expected_seq_.assign(config_.vcs, 0);
}

const Flit* GoBackNReceiver::receive(const Flit& flit,
                                     std::uint32_t can_take_mask) {
  const std::uint8_t vc = flit.vc;
  XPL_ASSERT(vc < expected_seq_.size());

  if (!flit_verify(flit, config_.crc)) {
    // Corrupted in flight: ask the sender to go back to what we expect.
    ++crc_rejections_;
    pending_ack_ = AckBeat{true, /*ack=*/false, expected_seq_[vc], vc};
    return nullptr;
  }
  if ((flit.seqno & seq_mask_) != expected_seq_[vc]) {
    // Stale flit racing a rewind; drop silently (the sender is already
    // resending from expected_seq_, nACKing again would only thrash).
    return nullptr;
  }
  if ((can_take_mask >> vc & 1u) == 0) {
    // Flow control: intact and in order, but no room on this lane. nACK
    // so the sender retries; expected_seq_ stays put.
    ++flow_rejections_;
    pending_ack_ = AckBeat{true, /*ack=*/false, expected_seq_[vc], vc};
    return nullptr;
  }
  pending_ack_ = AckBeat{true, /*ack=*/true, expected_seq_[vc], vc};
  expected_seq_[vc] = (expected_seq_[vc] + 1) & seq_mask_;
  ++flits_accepted_;
  return &flit;
}

}  // namespace xpl::link
