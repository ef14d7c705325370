// Pipelined link: latency, error injection statistics.
//
// Timing note: testbench writes to a Signal commit at the end of the next
// kernel step (two-phase semantics), and the link itself registers once,
// so a flit written before step k is visible at the far end after step
// k + 1 + stages.
#include "src/link/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace xpl::link {
namespace {

struct Harness {
  sim::Kernel kernel;
  LinkWires up;
  LinkWires down;
  PipelinedLink link;

  explicit Harness(PipelinedLink::Config cfg)
      : up(LinkWires::make(kernel)),
        down(LinkWires::make(kernel)),
        link("dut", up, down, cfg) {
    kernel.add_module(link);
  }

  static Flit make_flit(std::uint64_t value) {
    Flit f(BitVector(32, value & 0xFFFFFFFF), true, true);
    flit_seal(f, CrcKind::kCrc8);
    return f;
  }

  // Streams `n` flits back to back and returns everything that came out.
  std::vector<Flit> stream(int n) {
    std::vector<Flit> out;
    auto collect = [&] {
      if (down.fwd->read().valid) out.push_back(down.fwd->read().flit);
    };
    for (int i = 0; i < n; ++i) {
      up.fwd->write(FlitBeat{true, make_flit(i)});
      kernel.step();
      collect();
    }
    up.fwd->write(FlitBeat{});
    for (std::size_t i = 0; i < link.config().stages + 4; ++i) {
      kernel.step();
      collect();
    }
    return out;
  }
};

TEST(PipelinedLink, ZeroStageLatencyIsTwoKernelCycles) {
  Harness h({});
  h.up.fwd->write(FlitBeat{true, Harness::make_flit(0x42)});
  h.kernel.step();  // write commits: flit on the wire
  EXPECT_FALSE(h.down.fwd->read().valid);
  h.kernel.step();  // link forwards
  ASSERT_TRUE(h.down.fwd->read().valid);
  EXPECT_EQ(h.down.fwd->read().flit.payload.to_u64(), 0x42u);
}

TEST(PipelinedLink, EachStageAddsOneCycle) {
  for (const std::size_t stages : {1u, 2u, 5u}) {
    PipelinedLink::Config cfg;
    cfg.stages = stages;
    Harness h(cfg);
    h.up.fwd->write(FlitBeat{true, Harness::make_flit(0x77)});
    h.kernel.step();
    h.up.fwd->write(FlitBeat{});  // single pulse
    for (std::size_t i = 0; i < stages + 1; ++i) {
      EXPECT_FALSE(h.down.fwd->read().valid)
          << "early exit, stages=" << stages << " i=" << i;
      h.kernel.step();
    }
    EXPECT_TRUE(h.down.fwd->read().valid) << "stages=" << stages;
  }
}

TEST(PipelinedLink, ReverseAckPathMirrorsDelay) {
  PipelinedLink::Config cfg;
  cfg.stages = 3;
  Harness h(cfg);
  h.down.rev->write(AckBeat{true, true, 9});
  h.kernel.step();
  h.down.rev->write(AckBeat{});
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(h.up.rev->read().valid) << "cycle " << i;
    h.kernel.step();
  }
  ASSERT_TRUE(h.up.rev->read().valid);
  EXPECT_EQ(h.up.rev->read().seqno, 9u);
  EXPECT_TRUE(h.up.rev->read().ack);
}

TEST(PipelinedLink, BackToBackFlitsAllArriveInOrder) {
  PipelinedLink::Config cfg;
  cfg.stages = 2;
  Harness h(cfg);
  const auto out = h.stream(20);
  ASSERT_EQ(out.size(), 20u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].payload.to_u64(), i);
  }
  EXPECT_EQ(h.link.flits_carried(), 20u);
}

TEST(PipelinedLink, NoErrorsWhenRateZero) {
  Harness h({});
  const auto out = h.stream(100);
  ASSERT_EQ(out.size(), 100u);
  for (const Flit& f : out) {
    EXPECT_TRUE(flit_verify(f, CrcKind::kCrc8));
  }
  EXPECT_EQ(h.link.flits_corrupted(), 0u);
}

TEST(PipelinedLink, ErrorRateMatchesConfiguration) {
  PipelinedLink::Config cfg;
  cfg.bit_error_rate = 0.01;
  cfg.seed = 5;
  Harness h(cfg);
  const int n = 3000;
  const auto out = h.stream(n);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  int bad = 0;
  for (const Flit& f : out) {
    if (!flit_verify(f, CrcKind::kCrc8)) ++bad;
  }
  // ~43 protected bits/flit at BER 0.01 -> roughly a third of flits hit;
  // CRC8 catches nearly all of them.
  const double frac = static_cast<double>(h.link.flits_corrupted()) / n;
  EXPECT_GT(frac, 0.20);
  EXPECT_LT(frac, 0.50);
  EXPECT_GT(bad, 0);
  EXPECT_LE(static_cast<std::uint64_t>(bad), h.link.flits_corrupted());
  EXPECT_GT(static_cast<std::uint64_t>(bad),
            h.link.flits_corrupted() * 90 / 100);
}

// The per-bit fault model inject_bit_errors must reproduce draw for
// draw: one Rng::chance per payload bit, head, tail and seqno, then the
// seqno bit pick. Covers partial and multi-word payloads and chance's
// edge cases (p <= 0 and p >= 1 draw nothing).
bool reference_inject(Flit& flit, double p, Rng& rng) {
  bool corrupted = false;
  for (std::size_t i = 0; i < flit.payload.width(); ++i) {
    if (rng.chance(p)) {
      flit.payload.set(i, !flit.payload.get(i));
      corrupted = true;
    }
  }
  if (rng.chance(p)) {
    flit.head = !flit.head;
    corrupted = true;
  }
  if (rng.chance(p)) {
    flit.tail = !flit.tail;
    corrupted = true;
  }
  if (rng.chance(p)) {
    flit.seqno ^= 1u << rng.next_below(8);
    corrupted = true;
  }
  return corrupted;
}

TEST(InjectBitErrors, MatchesPerBitChanceReference) {
  for (const double p : {-1.0, 0.0, 1e-4, 0.01, 0.3, 1.0, 2.0}) {
    for (const std::size_t width : {1, 17, 64, 65, 130, 200}) {
      Rng ref_rng(7);
      Rng rng(7);
      Rng data(width);
      for (int trial = 0; trial < 200; ++trial) {
        Flit flit(BitVector(width), trial % 2 == 0, trial % 3 == 0);
        for (std::size_t pos = 0; pos < width; pos += 64) {
          flit.payload.deposit(pos, std::min<std::size_t>(64, width - pos),
                               data.next_u64());
        }
        flit.seqno = static_cast<std::uint8_t>(trial);
        Flit want = flit;
        const bool want_hit = reference_inject(want, p, ref_rng);
        ASSERT_EQ(inject_bit_errors(flit, p, rng), want_hit)
            << "p=" << p << " width=" << width << " trial=" << trial;
        ASSERT_EQ(flit.payload, want.payload);
        ASSERT_EQ(flit.head, want.head);
        ASSERT_EQ(flit.tail, want.tail);
        ASSERT_EQ(flit.seqno, want.seqno);
      }
      EXPECT_EQ(rng.next_u64(), ref_rng.next_u64())
          << "streams out of step, p=" << p << " width=" << width;
    }
  }
}

TEST(PipelinedLink, IdleCyclesCarryNothing) {
  Harness h({});
  h.kernel.run(10);
  EXPECT_EQ(h.link.flits_carried(), 0u);
  EXPECT_FALSE(h.down.fwd->read().valid);
}

}  // namespace
}  // namespace xpl::link
