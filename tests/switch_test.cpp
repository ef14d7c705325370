// The 2-stage wormhole switch: routing, arbitration, wormhole integrity,
// backpressure, error recovery, pipeline-depth emulation.
#include "src/switchlib/switch.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "src/common/rng.hpp"
#include "src/packet/packetizer.hpp"
#include "src/sim/kernel.hpp"

namespace xpl::switchlib {
namespace {

PacketFormat test_format() {
  PacketFormat f;
  f.header.port_bits = 3;
  f.header.max_hops = 4;
  f.header.node_bits = 4;
  f.header.txn_bits = 4;
  f.header.thread_bits = 2;
  f.header.burst_bits = 4;
  f.header.addr_bits = 12;
  f.flit_width = 32;
  f.beat_width = 32;
  return f;
}

// Queues whole packets and streams their flits through a go-back-N sender.
class Injector : public sim::Module {
 public:
  Injector(std::string name, link::LinkWires wires,
           const link::ProtocolConfig& cfg)
      : sim::Module(std::move(name)), tx_(wires, cfg) {}

  void push_packet(const std::vector<Flit>& flits) {
    for (const Flit& f : flits) queue_.push_back(f);
  }

  void tick(sim::Kernel&) override {
    tx_.begin_cycle();
    if (!queue_.empty() && tx_.can_accept()) {
      tx_.accept(std::move(queue_.front()));
      queue_.pop_front();
    }
    tx_.end_cycle();
  }

  bool done() const { return queue_.empty() && tx_.idle(); }

 private:
  link::GoBackNSender tx_;
  std::deque<Flit> queue_;
};

// Collects flits, checking wormhole framing (head ... tail, no interleave).
class Collector : public sim::Module {
 public:
  Collector(std::string name, link::LinkWires wires,
            const link::ProtocolConfig& cfg, double stall = 0.0,
            std::uint64_t seed = 1)
      : sim::Module(std::move(name)), rx_(wires, cfg), stall_(stall),
        rng_(seed) {}

  void tick(sim::Kernel& kernel) override {
    const bool can_take = !rng_.chance(stall_);
    if (auto flit = rx_.begin_cycle(can_take)) {
      if (in_packet_) {
        EXPECT_FALSE(flit->head) << name() << ": head mid-packet";
      } else {
        EXPECT_TRUE(flit->head) << name() << ": body without head";
        packet_start_cycles_.push_back(kernel.cycle());
      }
      in_packet_ = !flit->tail;
      if (flit->tail) ++packets_;
      flits_.push_back(*flit);
    }
    rx_.end_cycle();
  }

  std::size_t packets() const { return packets_; }
  const std::vector<Flit>& flits() const { return flits_; }
  const std::vector<std::uint64_t>& packet_start_cycles() const {
    return packet_start_cycles_;
  }

 private:
  link::GoBackNReceiver rx_;
  double stall_;
  Rng rng_;
  std::vector<Flit> flits_;
  std::vector<std::uint64_t> packet_start_cycles_;
  bool in_packet_ = false;
  std::size_t packets_ = 0;
};

struct Harness {
  sim::Kernel kernel;
  PacketFormat format = test_format();
  SwitchConfig config;
  std::vector<link::LinkWires> in_wires;
  std::vector<link::LinkWires> out_wires;
  std::vector<std::unique_ptr<Injector>> injectors;
  std::vector<std::unique_ptr<Collector>> collectors;
  std::unique_ptr<Switch> dut;

  Harness(std::size_t n_in, std::size_t n_out,
          ArbiterKind arbiter = ArbiterKind::kRoundRobin,
          std::size_t extra_pipeline = 0, double collector_stall = 0.0) {
    config.num_inputs = n_in;
    config.num_outputs = n_out;
    config.flit_width = format.flit_width;
    config.port_bits = format.header.port_bits;
    config.route_bits = format.header.route_bits();
    config.arbiter = arbiter;
    config.extra_pipeline = extra_pipeline;
    config.protocol = link::ProtocolConfig::for_link(0);
    for (std::size_t i = 0; i < n_in; ++i) {
      in_wires.push_back(link::LinkWires::make(kernel));
      injectors.push_back(std::make_unique<Injector>(
          "inj" + std::to_string(i), in_wires.back(), config.protocol));
    }
    for (std::size_t o = 0; o < n_out; ++o) {
      out_wires.push_back(link::LinkWires::make(kernel));
      collectors.push_back(std::make_unique<Collector>(
          "col" + std::to_string(o), out_wires.back(), config.protocol,
          collector_stall, 100 + o));
    }
    dut = std::make_unique<Switch>("dut", config, in_wires, out_wires);
    for (auto& m : injectors) kernel.add_module(*m);
    kernel.add_module(*dut);
    for (auto& m : collectors) kernel.add_module(*m);
  }

  // A packet whose first route selector is `out_port`, then `rest`.
  std::vector<Flit> make_packet(std::uint8_t out_port, Route rest = {},
                                std::size_t beats = 2,
                                std::uint32_t src = 1) {
    Packet p;
    p.header.route = {out_port};
    for (const auto r : rest) p.header.route.push_back(r);
    p.header.cmd = beats ? PacketCmd::kWrite : PacketCmd::kRead;
    p.header.src = src;
    p.header.dst = 2;
    p.header.burst_len = static_cast<std::uint32_t>(beats ? beats : 1);
    p.header.addr = 0x123;
    for (std::size_t b = 0; b < beats; ++b) {
      p.beats.emplace_back(format.beat_width, 0xC0DE00 + b);
    }
    return packetize(p, format);
  }

  bool drained() {
    for (const auto& inj : injectors) {
      if (!inj->done()) return false;
    }
    return dut->idle();
  }

  void run_to_drain(std::size_t max_cycles = 20000) {
    kernel.run_until([&] { return drained(); }, max_cycles);
  }
};

TEST(Switch, RoutesToEachOutput) {
  Harness h(2, 4);
  for (std::uint8_t o = 0; o < 4; ++o) {
    h.injectors[0]->push_packet(h.make_packet(o));
  }
  h.run_to_drain();
  for (std::size_t o = 0; o < 4; ++o) {
    EXPECT_EQ(h.collectors[o]->packets(), 1u) << "output " << o;
  }
}

TEST(Switch, ConsumesExactlyOneRouteSelector) {
  Harness h(1, 2);
  // Route {1, 5, 3}: this switch must take port 1 and forward the shifted
  // route {5, 3}.
  h.injectors[0]->push_packet(h.make_packet(1, {5, 3}, 0));
  h.run_to_drain();
  ASSERT_EQ(h.collectors[1]->packets(), 1u);
  const Flit& head = h.collectors[1]->flits().front();
  ASSERT_TRUE(head.head);
  EXPECT_EQ(peek_route_port(head.payload, h.format.header.port_bits), 5u);
}

TEST(Switch, WormholeDoesNotInterleave) {
  // Both inputs blast multi-flit packets at output 0; the Collector's
  // framing assertions catch any interleaving.
  Harness h(2, 2);
  for (int k = 0; k < 10; ++k) {
    h.injectors[0]->push_packet(h.make_packet(0, {}, 4, /*src=*/1));
    h.injectors[1]->push_packet(h.make_packet(0, {}, 4, /*src=*/2));
  }
  h.run_to_drain();
  EXPECT_EQ(h.collectors[0]->packets(), 20u);
}

TEST(Switch, ParallelFlowsUseFullCrossbar) {
  // Input i -> output i for all i simultaneously; both flows complete in
  // roughly the time of one (no false serialization).
  Harness h(2, 2);
  const int packets = 20;
  for (int k = 0; k < packets; ++k) {
    h.injectors[0]->push_packet(h.make_packet(0, {}, 2, 1));
    h.injectors[1]->push_packet(h.make_packet(1, {}, 2, 2));
  }
  const auto cycles =
      h.kernel.run_until([&] { return h.drained(); }, 20000);
  EXPECT_EQ(h.collectors[0]->packets(), 20u);
  EXPECT_EQ(h.collectors[1]->packets(), 20u);
  // ~5 flits/packet, 1 flit/cycle/port in parallel, generous margin.
  EXPECT_LT(cycles, 300u);
}

TEST(Switch, RoundRobinSharesFairly) {
  Harness h(2, 1, ArbiterKind::kRoundRobin);
  for (int k = 0; k < 30; ++k) {
    h.injectors[0]->push_packet(h.make_packet(0, {}, 1, 1));
    h.injectors[1]->push_packet(h.make_packet(0, {}, 1, 2));
  }
  h.run_to_drain(50000);
  EXPECT_EQ(h.collectors[0]->packets(), 60u);
}

TEST(Switch, BackpressureIsLossless) {
  Harness h(2, 1, ArbiterKind::kRoundRobin, 0, /*stall=*/0.7);
  for (int k = 0; k < 15; ++k) {
    h.injectors[0]->push_packet(h.make_packet(0, {}, 2, 1));
    h.injectors[1]->push_packet(h.make_packet(0, {}, 2, 2));
  }
  h.run_to_drain(100000);
  EXPECT_EQ(h.collectors[0]->packets(), 30u);
  EXPECT_GT(h.dut->retransmissions(), 0u);
}

TEST(Switch, CountsFlitsAndPackets) {
  Harness h(1, 2);
  h.injectors[0]->push_packet(h.make_packet(0, {}, 3));
  h.injectors[0]->push_packet(h.make_packet(1, {}, 0));
  h.run_to_drain();
  const std::size_t hdr = h.format.header_flits();
  EXPECT_EQ(h.dut->flits_switched(), hdr + 3 + hdr);
  EXPECT_EQ(h.dut->packets_per_output()[0], 1u);
  EXPECT_EQ(h.dut->packets_per_output()[1], 1u);
}

TEST(Switch, IdleAfterDrainAndBeforeTraffic) {
  Harness h(2, 2);
  EXPECT_TRUE(h.dut->idle());
  h.injectors[0]->push_packet(h.make_packet(0));
  h.kernel.run(3);
  EXPECT_FALSE(h.dut->idle());
  h.run_to_drain();
  EXPECT_TRUE(h.dut->idle());
}

TEST(Switch, ExtraPipelineAddsExactLatency) {
  auto measure = [](std::size_t extra) {
    Harness h(1, 1, ArbiterKind::kRoundRobin, extra);
    h.injectors[0]->push_packet(h.make_packet(0, {}, 0));
    h.run_to_drain();
    return h.collectors[0]->packet_start_cycles().at(0);
  };
  const auto base = measure(0);
  // The paper's old 7-stage switch vs the lite 2-stage switch.
  EXPECT_EQ(measure(5), base + 5);
  EXPECT_EQ(measure(1), base + 1);
}

TEST(Switch, BadRoutePortIsRejected) {
  Harness h(1, 2);
  // Selector 7 on a 2-output switch: protocol violation, must throw.
  h.injectors[0]->push_packet(h.make_packet(7, {}, 0));
  try {
    h.kernel.run(20);
    FAIL() << "bad route port accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "Switch: head flit requests a nonexistent output port");
  }
}

// Stage 2 serves outputs in index order within a cycle. When a tail
// leaves an input lane for output o, the head behind it can still win a
// later output o' > o in the same cycle (the lane's request is
// recomputed when its front changes), but never an earlier one, already
// served. With one input lane, a cycle that switches two flits is exactly
// that case: packets alternate output 0 / output 1 and the stalling
// collectors back the tails up behind the next head. The pinned values
// are those of the output-major scan this switch replaced.
TEST(Switch, TailThenHeadWinsLaterOutputInOneCycle) {
  Harness h(1, 2, ArbiterKind::kRoundRobin, 0, /*collector_stall=*/0.8);
  for (int k = 0; k < 16; ++k) {
    h.injectors[0]->push_packet(h.make_packet(0, {}, 0));
    h.injectors[0]->push_packet(h.make_packet(1, {}, 0));
  }
  std::vector<std::uint64_t> double_moves;
  while (!h.drained() && h.kernel.cycle() < 2000) {
    const std::uint64_t before = h.dut->flits_switched();
    h.kernel.run(1);
    if (h.dut->flits_switched() - before == 2) {
      double_moves.push_back(h.kernel.cycle());
    }
  }
  ASSERT_TRUE(h.drained());
  EXPECT_EQ(double_moves, (std::vector<std::uint64_t>{25, 37, 53, 61, 93}));
  const std::vector<std::uint64_t> starts0 = {
      16, 32, 46, 54, 66, 94, 106, 124, 140, 164, 166, 184, 190, 216, 240, 248};
  const std::vector<std::uint64_t> starts1 = {
      8, 12, 44, 58, 90, 138, 148, 168, 182, 210, 230, 244, 250, 270, 292, 306};
  EXPECT_EQ(h.collectors[0]->packet_start_cycles(), starts0);
  EXPECT_EQ(h.collectors[1]->packet_start_cycles(), starts1);
  EXPECT_EQ(h.dut->flits_switched(), 64u);
  EXPECT_EQ(h.kernel.cycle(), 327u);
}

TEST(SwitchConfig, ValidationCatchesBadGeometry) {
  SwitchConfig cfg;
  cfg.num_outputs = 16;
  cfg.port_bits = 3;  // 16 outputs need 4 bits
  EXPECT_THROW(cfg.validate(), Error);
  cfg = SwitchConfig{};
  cfg.route_bits = 64;
  cfg.flit_width = 32;  // route must fit one flit
  EXPECT_THROW(cfg.validate(), Error);
}

// Radix sweep: every (in, out) shape the paper's mesh uses routes all
// packets correctly under random traffic.
class RadixSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(RadixSweep, RandomTrafficAllDelivered) {
  const auto [n_in, n_out] = GetParam();
  Harness h(n_in, n_out);
  Rng rng(n_in * 10 + n_out);
  std::vector<std::size_t> expected(n_out, 0);
  for (int k = 0; k < 40; ++k) {
    const auto in = rng.next_below(n_in);
    const auto out = static_cast<std::uint8_t>(rng.next_below(n_out));
    h.injectors[in]->push_packet(
        h.make_packet(out, {}, rng.next_below(4),
                      static_cast<std::uint32_t>(in)));
    ++expected[out];
  }
  h.run_to_drain(100000);
  for (std::size_t o = 0; o < n_out; ++o) {
    EXPECT_EQ(h.collectors[o]->packets(), expected[o]) << "output " << o;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshShapes, RadixSweep,
    ::testing::Values(std::tuple<std::size_t, std::size_t>{4, 4},
                      std::tuple<std::size_t, std::size_t>{6, 4},
                      std::tuple<std::size_t, std::size_t>{5, 5},
                      std::tuple<std::size_t, std::size_t>{2, 6},
                      std::tuple<std::size_t, std::size_t>{8, 8}));

}  // namespace
}  // namespace xpl::switchlib
