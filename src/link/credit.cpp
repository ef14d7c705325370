#include "src/link/credit.hpp"

#include "src/common/error.hpp"

namespace xpl::link {

CreditSender::CreditSender(LinkWires wires, const ProtocolConfig& config)
    : wires_(wires), config_(config) {
  config_.validate();
  lanes_.resize(config_.vcs);
  for (Lane& lane : lanes_) {
    lane.credits = config_.window;
    lane.buffer.reserve(config_.window);  // can_accept bounds it at window
  }
}

void CreditSender::collect(std::uint8_t vc) {
  // One valid reverse beat = one credit returned for lane vc (ack/seqno
  // unused).
  XPL_ASSERT(vc < lanes_.size());
  Lane& lane = lanes_[vc];
  XPL_ASSERT(lane.credits < config_.window);
  if (lane.credits == 0) --starved_;
  ++lane.credits;
  --spent_;
}

void CreditSender::transmit() {
  // One physical flit per cycle: serve lanes with staged flits
  // round-robin. can_accept keeps each lane's staged count <= its
  // credits, so a staged flit always has a credit to spend.
  std::size_t v = next_lane_;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    Lane& lane = lanes_[v];
    const std::size_t next = v + 1 == lanes_.size() ? 0 : v + 1;
    if (!lane.buffer.empty()) {
      XPL_ASSERT(lane.credits > 0);
      if (--lane.credits == 0) ++starved_;
      ++spent_;
      --staged_;
      wires_.fwd->write(FlitBeat{true, std::move(lane.buffer.front())});
      fwd_dirty_ = true;
      lane.buffer.pop_front();
      ++flits_sent_;
      next_lane_ = next;
      return;
    }
    v = next;
  }
  XPL_ASSERT(false);  // staged_ counted a flit that no lane holds
}

CreditReceiver::CreditReceiver(LinkWires wires, const ProtocolConfig& config)
    : wires_(wires), config_(config) {
  config_.validate();
  lanes_.resize(config_.vcs);
  for (auto& lane : lanes_) lane.reserve(config_.window);
}

const Flit* CreditReceiver::receive(const FlitBeat& beat,
                                    std::uint32_t can_take_mask) {
  if (beat.valid) {
    // The sender spent one of this lane's credits for the slot; overflow
    // is a protocol wiring bug, not a runtime condition.
    XPL_ASSERT(beat.flit.vc < lanes_.size());
    auto& lane = lanes_[beat.flit.vc];
    XPL_ASSERT(lane.size() < config_.window);
    lane.push_back(beat.flit);
    ++buffered_;
  }
  // Drain at most one flit from a takeable lane, round-robin. The popped
  // slot keeps its value until the lane's next push (next cycle at the
  // earliest), so the owner reads the flit in place.
  std::size_t v = drain_next_;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    auto& lane = lanes_[v];
    const std::size_t next = v + 1 == lanes_.size() ? 0 : v + 1;
    if (!lane.empty() && (can_take_mask >> v & 1u) != 0) {
      const Flit* flit = &lane.front();
      lane.pop_front();
      --buffered_;
      pending_credit_ = true;  // slot freed: return exactly one credit
      pending_credit_vc_ = static_cast<std::uint8_t>(v);
      ++flits_accepted_;
      drain_next_ = next;
      return flit;
    }
    v = next;
  }
  return nullptr;
}

}  // namespace xpl::link
