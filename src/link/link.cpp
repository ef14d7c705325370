#include "src/link/link.hpp"

#include <algorithm>

namespace xpl::link {

bool inject_bit_errors(Flit& flit, double bit_error_rate, Rng& rng) {
  // Rng::chance's edge cases: p <= 0 draws nothing and never hits, p >= 1
  // draws nothing and always hits. In between, every chance is one draw
  // against the threshold hoisted here.
  if (bit_error_rate <= 0.0) return false;
  const bool certain = bit_error_rate >= 1.0;
  const std::uint64_t threshold = Rng::chance_threshold(bit_error_rate);
  const auto hit = [&] { return certain || rng.below_threshold(threshold); };
  bool corrupted = false;
  // Payload flips collect into one mask per 64-bit slice, drawn in bit
  // order, and land with a single XOR.
  BitVector& payload = flit.payload;
  for (std::size_t pos = 0; pos < payload.width(); pos += 64) {
    const std::size_t count = std::min<std::size_t>(64, payload.width() - pos);
    std::uint64_t mask = 0;
    for (std::size_t b = 0; b < count; ++b) {
      mask |= std::uint64_t{hit()} << b;
    }
    if (mask != 0) {
      payload.deposit(pos, count, payload.slice(pos, count) ^ mask);
      corrupted = true;
    }
  }
  if (hit()) {
    flit.head = !flit.head;
    corrupted = true;
  }
  if (hit()) {
    flit.tail = !flit.tail;
    corrupted = true;
  }
  if (hit()) {
    flit.seqno ^= 1u << rng.next_below(8);
    corrupted = true;
  }
  return corrupted;
}

PipelinedLink::PipelinedLink(std::string name, const LinkWires& upstream,
                             const LinkWires& downstream,
                             const Config& config)
    : sim::Module(std::move(name)),
      config_(config),
      up_(upstream),
      down_(downstream),
      rng_(config.seed) {
  if (config_.stages > 0) {
    fwd_q_.reserve(config_.stages + 1);
    rev_q_.reserve(config_.stages + 1);
  }
  // Wake on traffic from either end (a no-op under the full reference).
  up_.fwd->watch(*this);
  down_.rev->watch(*this);
}

void PipelinedLink::tick(sim::Kernel& kernel) {
  // Forward direction: sender -> (stages) -> receiver. The reliable-link
  // fast path (the sweep default) forwards the wire value without touching
  // flit payloads; error injection mutates a copy in place.
  //
  // Due-record invariant (all schedulers): a beat read from the input
  // wire at cycle t emerges on the output wire at cycle t + stages — the
  // exact timing of the per-stage shift registers this replaced. Only
  // valid beats are stored; a tick with nothing arriving and nothing due
  // touches no state and writes no wire, which is what lets the time-leap
  // scheduler park a mid-flight link until its front due. Senders write
  // every valid beat (write-on-change drives valid beats uncondition-
  // ally), so the watcher wake guarantees the link ticks every arrival
  // cycle: flit counting and error-injection RNG draws happen at entry in
  // the same order as under per-cycle ticking.
  const std::uint64_t now = kernel.cycle();
  const FlitBeat& wire_in = up_.fwd->read();
  if (wire_in.valid) ++flits_carried_;
  const bool inject = wire_in.valid && config_.bit_error_rate > 0.0;
  FlitBeat fwd_out;
  if (config_.stages == 0) {
    // Degenerate pipe: the kernel register between the endpoints is the
    // only stage, so a valid wire value forwards directly (an idle one
    // is the idle beat fwd_out already holds; no flit copy).
    if (wire_in.valid) {
      fwd_out = wire_in;
      if (inject && inject_bit_errors(fwd_out.flit, config_.bit_error_rate,
                                      rng_)) {
        ++flits_corrupted_;
      }
    }
  } else {
    if (!fwd_q_.empty() && fwd_q_.front().due <= now) {
      fwd_out = std::move(fwd_q_.front().beat);
      fwd_q_.pop_front();
    }
    if (wire_in.valid) {
      fwd_q_.push_back({now + config_.stages, wire_in});
      if (inject && inject_bit_errors(fwd_q_.back().beat.flit,
                                      config_.bit_error_rate, rng_)) {
        ++flits_corrupted_;
      }
    }
  }
  // Write-on-change: valid beats are always driven; the idle beat is
  // driven once after the last valid one.
  if (fwd_out.valid) {
    down_.fwd->write(std::move(fwd_out));
    fwd_out_dirty_ = true;
  } else if (fwd_out_dirty_) {
    down_.fwd->write(std::move(fwd_out));
    fwd_out_dirty_ = false;
  }

  // Reverse direction: receiver -> (stages) -> sender. Reliable.
  const AckBeat ack_in = down_.rev->read();
  AckBeat rev_out;
  if (config_.stages == 0) {
    rev_out = ack_in;
  } else {
    if (!rev_q_.empty() && rev_q_.front().due <= now) {
      rev_out = rev_q_.front().beat;
      rev_q_.pop_front();
    }
    if (ack_in.valid) {
      rev_q_.push_back({now + config_.stages, ack_in});
    }
  }
  if (rev_out.valid) {
    up_.rev->write(rev_out);
    rev_out_dirty_ = true;
  } else if (rev_out_dirty_) {
    up_.rev->write(rev_out);
    rev_out_dirty_ = false;
  }
}

std::uint64_t PipelinedLink::next_event(std::uint64_t now) const {
  // Dirty output wires owe a trailing idle write next cycle; a valid
  // input wire means a beat is arriving. Otherwise the only pending work
  // is mid-pipe, and the front dues bound it exactly.
  if (fwd_out_dirty_ || rev_out_dirty_ || up_.fwd->read().valid ||
      down_.rev->read().valid) {
    return now + 1;
  }
  std::uint64_t e = sim::kNever;
  if (!fwd_q_.empty()) e = std::min(e, fwd_q_.front().due);
  if (!rev_q_.empty()) e = std::min(e, rev_q_.front().due);
  return e;
}

}  // namespace xpl::link
