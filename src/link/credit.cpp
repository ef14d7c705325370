#include "src/link/credit.hpp"

#include "src/common/error.hpp"

namespace xpl::link {

CreditSender::CreditSender(LinkWires wires, const ProtocolConfig& config)
    : wires_(wires), config_(config) {
  config_.validate();
  credits_.assign(config_.vcs, config_.window);
}

void CreditSender::collect(std::uint8_t vc) {
  // One valid reverse beat = one credit returned for lane vc (ack/seqno
  // unused).
  XPL_ASSERT(vc < credits_.size());
  std::size_t& credits = credits_[vc];
  XPL_ASSERT(credits < config_.window);
  if (credits == 0) --starved_;
  ++credits;
  --spent_;
}

void CreditSender::transmit() {
  // can_accept granted the staged flit its lane's credit.
  std::size_t& credits = credits_[slot_.vc];
  XPL_ASSERT(credits > 0);
  if (--credits == 0) ++starved_;
  ++spent_;
  staged_ = false;
  wires_.fwd->write(FlitBeat{true, std::move(slot_)});
  fwd_dirty_ = true;
  ++flits_sent_;
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
