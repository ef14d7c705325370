#include "src/link/cut.hpp"

namespace xpl::link {

CutLink::CutLink(const std::string& name, const LinkWires& upstream,
                 const LinkWires& downstream, const Config& config)
    : name_(name),
      config_(config),
      up_(upstream),
      down_(downstream),
      rng_(config.seed),
      sender_(*this, name + ".tx"),
      receiver_(*this, name + ".rx") {
  // Each half watches the wire it samples, in its own partition — the
  // same two watch slots the uncut PipelinedLink would take.
  up_.fwd->watch(sender_);
  down_.rev->watch(receiver_);
}

void CutLink::tick_sender(sim::Kernel& kernel) {
  const std::uint64_t now = kernel.cycle();
  // Replay due ack records onto the upstream reverse wire with the uncut
  // link's write-on-change filter: valid beats always, the idle beat
  // only as the one trailing write after a valid run. The filter matters
  // — an extra idle write would wake the upstream consumer on cycles the
  // uncut link would not.
  while (!rev_inbox_.empty() && rev_inbox_.front().due == now) {
    AckBeat beat = rev_inbox_.front().beat;
    rev_inbox_.pop_front();
    if (beat.valid) {
      up_.rev->write(beat);
      rev_out_dirty_ = true;
    } else if (rev_out_dirty_) {
      up_.rev->write(beat);
      rev_out_dirty_ = false;
    }
  }
  // Capture this cycle's upstream write, if any. Under write-on-change a
  // wire holds a valid beat only on cycles it was written for, so the
  // record stream equals the beat stream the uncut link would carry.
  if (up_.fwd->written()) {
    FlitBeat beat = up_.fwd->staged();
    if (beat.valid) {
      ++flits_carried_;
      // inject_bit_errors draws in beat order, as PipelinedLink does, so
      // the corrupted payload stream matches the uncut link's.
      if (config_.bit_error_rate > 0.0 &&
          inject_bit_errors(beat.flit, config_.bit_error_rate, rng_)) {
        ++flits_corrupted_;
      }
    }
    fwd_outbox_.push_back({now + 1 + config_.stages, std::move(beat)});
  }
}

void CutLink::tick_receiver(sim::Kernel& kernel) {
  const std::uint64_t now = kernel.cycle();
  while (!fwd_inbox_.empty() && fwd_inbox_.front().due == now) {
    FlitBeat beat = std::move(fwd_inbox_.front().beat);
    fwd_inbox_.pop_front();
    if (beat.valid) {
      down_.fwd->write(std::move(beat));
      fwd_out_dirty_ = true;
    } else if (fwd_out_dirty_) {
      down_.fwd->write(std::move(beat));
      fwd_out_dirty_ = false;
    }
  }
  if (down_.rev->written()) {
    rev_outbox_.push_back(
        {now + 1 + config_.stages, down_.rev->staged()});
  }
}

// Time-leap next events for the halves. Only the *inbox* front due is a
// self-driven event: capture gates on written() (the watcher wakes the
// half on every upstream write), outboxes drain at the exchange barrier
// regardless of wakefulness, and a dirty output wire's trailing idle
// write is itself carried by an inbox record — so a half with an empty
// inbox has nothing to do until a signal or exchange wake arrives.
std::uint64_t CutLink::sender_next_event(std::uint64_t now) const {
  if (up_.fwd->read().valid) return now + 1;
  return rev_inbox_.empty() ? sim::kNever : rev_inbox_.front().due;
}

std::uint64_t CutLink::receiver_next_event(std::uint64_t now) const {
  if (down_.rev->read().valid) return now + 1;
  return fwd_inbox_.empty() ? sim::kNever : fwd_inbox_.front().due;
}

void CutLink::exchange() {
  if (!fwd_outbox_.empty()) {
    do {
      if (fwd_outbox_.front().beat.valid) ++flits_exchanged_;
      fwd_inbox_.push_back(std::move(fwd_outbox_.front()));
      fwd_outbox_.pop_front();
    } while (!fwd_outbox_.empty());
    receiver_.wake();
  }
  if (!rev_outbox_.empty()) {
    do {
      rev_inbox_.push_back(std::move(rev_outbox_.front()));
      rev_outbox_.pop_front();
    } while (!rev_outbox_.empty());
    sender_.wake();
  }
}

}  // namespace xpl::link
