// Credit-based flow control: counted-slot lossless delivery over
// reliable links, zero-credit stalling, the flow.hpp protocol seam, and
// credit mode end to end through Network and the sweep engine.
#include "src/link/credit.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/link/flow.hpp"
#include "src/sim/kernel.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::link {
namespace {

// Streams `total` numbered flits through a LinkSender (protocol chosen
// by the harness), mirroring goback_n_test's TestSender.
class TestSender : public sim::Module {
 public:
  TestSender(FlowControl flow, LinkWires wires, const ProtocolConfig& cfg,
             std::size_t total)
      : sim::Module("sender"), tx_(flow, wires, cfg), total_(total) {}

  void tick(sim::Kernel& kernel) override {
    tx_.begin_cycle(kernel.cycle());
    if (next_ < total_ && tx_.can_accept()) {
      tx_.accept(Flit(BitVector(32, next_ & 0xFFFFFFFF), /*head=*/true,
                      /*tail=*/true));
      ++next_;
    }
    tx_.end_cycle();
  }

  bool done() const { return next_ == total_ && tx_.idle(); }
  const LinkSender& tx() const { return tx_; }

 private:
  LinkSender tx_;
  std::size_t next_ = 0;
  std::size_t total_;
};

// Receives flits with a configurable stall probability and records
// payloads in arrival order.
class TestReceiver : public sim::Module {
 public:
  TestReceiver(FlowControl flow, LinkWires wires, const ProtocolConfig& cfg,
               double stall, std::uint64_t seed)
      : sim::Module("receiver"),
        rx_(flow, wires, cfg),
        stall_(stall),
        rng_(seed) {}

  void tick(sim::Kernel&) override {
    const bool can_take = !rng_.chance(stall_);
    if (auto flit = rx_.begin_cycle(can_take)) {
      values_.push_back(flit->payload.to_u64());
    }
    rx_.end_cycle();
  }

  const std::vector<std::uint64_t>& values() const { return values_; }
  const LinkReceiver& rx() const { return rx_; }

 private:
  LinkReceiver rx_;
  double stall_;
  Rng rng_;
  std::vector<std::uint64_t> values_;
};

struct Harness {
  sim::Kernel kernel;
  LinkWires up;
  LinkWires down;
  PipelinedLink link;
  TestSender sender;
  TestReceiver receiver;

  Harness(std::size_t total, std::size_t stages, double stall,
          FlowControl flow = FlowControl::kCredit, std::uint64_t seed = 3)
      : up(LinkWires::make(kernel)),
        down(LinkWires::make(kernel)),
        link("link", up, down, PipelinedLink::Config{stages, 0.0, seed}),
        sender(flow, up, ProtocolConfig::for_link(stages), total),
        receiver(flow, down, ProtocolConfig::for_link(stages), stall,
                 seed + 1) {
    kernel.add_module(sender);
    kernel.add_module(link);
    kernel.add_module(receiver);
  }

  std::uint64_t run_to_done(std::size_t max_cycles) {
    return kernel.run_until([&] { return sender.done(); }, max_cycles);
  }

  void expect_all_delivered(std::size_t total) {
    ASSERT_EQ(receiver.values().size(), total);
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(receiver.values()[i], i) << "out of order at " << i;
    }
  }
};

TEST(Credit, CleanLinkDeliversEverything) {
  Harness h(100, 0, 0.0);
  h.run_to_done(2000);
  EXPECT_TRUE(h.sender.done());
  h.expect_all_delivered(100);
  EXPECT_EQ(h.sender.tx().retransmissions(), 0u);
  EXPECT_EQ(h.sender.tx().credit_stalls(h.kernel.cycle()), 0u);
}

TEST(Credit, CleanPipelinedLinkSustainsFullThroughput) {
  // The credit count (= ProtocolConfig window) covers the round trip, so
  // a clean pipelined link sustains ~1 flit/cycle like go-back-N.
  const std::size_t total = 300;
  Harness h(total, 4, 0.0);
  const auto cycles = h.run_to_done(5000);
  h.expect_all_delivered(total);
  EXPECT_LT(cycles, total + 50);
}

TEST(Credit, BackpressureStallsAtZeroCreditsLosslessly) {
  Harness h(150, 2, 0.6);
  h.run_to_done(50000);
  ASSERT_TRUE(h.sender.done());
  h.expect_all_delivered(150);
  // A 60%-stalled receiver must have driven the sender to zero credits,
  // and back-pressure never retransmits under credits.
  EXPECT_GT(h.sender.tx().credit_stalls(h.kernel.cycle()), 0u);
  EXPECT_EQ(h.sender.tx().retransmissions(), 0u);
  EXPECT_EQ(h.receiver.rx().flow_rejections(), 0u);
}

TEST(Credit, SenderNeverExceedsCreditCount) {
  const auto cfg = ProtocolConfig::for_link(1);
  sim::Kernel kernel;
  auto wires = LinkWires::make(kernel);
  CreditSender tx(wires, cfg);
  // No receiver: no credit ever returns; exactly `window` flits may be
  // transmitted and the rest stage locally.
  std::size_t accepted = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    tx.begin_cycle(kernel.cycle());
    if (tx.can_accept()) {
      tx.accept(Flit(BitVector(8, static_cast<std::uint64_t>(cycle % 256)),
                     true, true));
      ++accepted;
    }
    tx.end_cycle();
    kernel.step();
  }
  EXPECT_EQ(tx.credits(), 0u);
  EXPECT_EQ(tx.flits_sent(), cfg.window);
  // Total outstanding (sent-but-uncredited + staged) is bounded at the
  // window, the same occupancy contract as the go-back-N sender.
  EXPECT_EQ(accepted, cfg.window);
  EXPECT_EQ(tx.in_flight(), cfg.window);
  // Every cycle after the window filled is a credit-starvation cycle.
  EXPECT_GT(tx.credit_stalls(kernel.cycle()), 0u);
  EXPECT_FALSE(tx.idle());
}

TEST(Credit, SenderStaysBusyUntilCreditsReturn) {
  // Quiescence correctness: a flit in flight on the link (sent, credit
  // not yet returned) must keep the sender non-idle, or Network could
  // report quiescent with flits still in the pipe.
  const auto cfg = ProtocolConfig::for_link(0);
  sim::Kernel kernel;
  auto wires = LinkWires::make(kernel);
  CreditSender tx(wires, cfg);
  CreditReceiver rx(wires, cfg);

  tx.begin_cycle(kernel.cycle());
  tx.accept(Flit(BitVector(8, 1), true, true));
  tx.end_cycle();
  kernel.step();  // flit on the wire
  EXPECT_TRUE(!tx.idle());

  // Receiver latches it but its owner cannot take it yet.
  tx.begin_cycle(kernel.cycle());
  EXPECT_EQ(rx.begin_cycle(/*can_take=*/false), nullptr);
  rx.end_cycle();
  tx.end_cycle();
  kernel.step();
  EXPECT_TRUE(!tx.idle());  // credit still outstanding

  // Owner drains; the credit beat crosses back next cycle.
  tx.begin_cycle(kernel.cycle());
  ASSERT_NE(rx.begin_cycle(/*can_take=*/true), nullptr);
  rx.end_cycle();
  tx.end_cycle();
  kernel.step();
  tx.begin_cycle(kernel.cycle());  // collects the returned credit
  tx.end_cycle();
  EXPECT_TRUE(tx.idle());
}

// The endpoints answer their lane-scan questions from counters
// (the staged slot, starved_, spent_, buffered_). A randomized accept /
// credit-return / drain schedule checks every answer, every cycle,
// against a scan over the lanes rebuilt from the wires and credits().
// The sender's owner also sleeps through random cycles whenever the
// sender's sleep claim (gate_idle) allows it, as the time-leap kernel
// would: credit_stalls(now), read mid-gap, must still count every
// starved cycle, slept or ticked.
class CreditCounters : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CreditCounters, MatchLaneScanEveryCycle) {
  const std::size_t vcs = GetParam();
  ProtocolConfig cfg = ProtocolConfig::for_link(0);
  cfg.window = 3;  // small, so lanes starve often
  cfg.vcs = vcs;
  sim::Kernel kernel;
  const LinkWires wires = LinkWires::make(kernel);
  CreditSender tx(wires, cfg);
  CreditReceiver rx(wires, cfg);
  Rng rng(40 + vcs);

  std::vector<std::size_t> staged(vcs, 0);    // accepted, not yet sent
  std::vector<std::size_t> buffered(vcs, 0);  // arrived, not yet drained
  std::uint64_t stalls = 0;
  std::uint64_t slept_stalls = 0;  // stalls of cycles the owner slept
  std::uint64_t next_payload = 0;
  std::vector<std::vector<std::uint64_t>> sent(vcs), got(vcs);

  const std::size_t kCycles = 4000;
  const std::size_t kDrainFrom = 3000;  // then accept nothing, drain all
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    // Phases of 200 cycles alternate a slow and a fast drain, so lanes
    // sit starved for stretches and then recover.
    const bool draining = cycle >= kDrainFrom;
    const double take_p = draining || (cycle / 200) % 2 == 1 ? 0.9 : 0.15;
    // A sleeping owner skips the sender's whole tick. gate_idle promises
    // the tick would read no credit and drive nothing, so the skip is
    // invisible except for the stall it would have counted.
    const bool asleep = tx.gate_idle() && rng.chance(0.5);

    if (!asleep) tx.begin_cycle(kernel.cycle());
    // Like every owner, stage at most one flit per cycle: on a randomly
    // chosen lane, which may be starved while others hold credits.
    const std::size_t lane = rng.next_below(vcs);
    if (!asleep && !draining && rng.chance(0.8) && tx.can_accept(lane)) {
      Flit f(BitVector(16, next_payload & 0xFFFF), true, true);
      f.vc = static_cast<std::uint8_t>(lane);
      sent[lane].push_back(next_payload & 0xFFFF);
      ++next_payload;
      tx.accept(std::move(f));
      ++staged[lane];
      EXPECT_FALSE(tx.can_accept(lane)) << "one staging slot";
    }

    std::uint32_t mask = 0;
    for (std::size_t v = 0; v < vcs; ++v) {
      if (rng.chance(take_p)) mask |= 1u << v;
    }
    const FlitBeat& arriving = wires.fwd->read();
    if (arriving.valid) ++buffered[arriving.flit.vc];
    if (const Flit* flit = rx.begin_cycle(mask)) {
      ASSERT_NE(mask >> flit->vc & 1u, 0u);
      --buffered[flit->vc];
      got[flit->vc].push_back(flit->payload.to_u64());
    }
    rx.end_cycle();

    // end_cycle's starvation rule, as a lane scan.
    std::size_t staged_total = 0;
    bool starved = false;
    for (std::size_t v = 0; v < vcs; ++v) {
      staged_total += staged[v];
      starved = starved || tx.credits(v) == 0;
    }
    if (staged_total == 0 && starved) {
      ++stalls;
      if (asleep) ++slept_stalls;
    }
    if (!asleep) tx.end_cycle();
    if (wires.fwd->written() && wires.fwd->staged().valid) {
      --staged[wires.fwd->staged().flit.vc];
    }
    kernel.step();

    // Lane-scan reference for every O(1) answer.
    std::size_t in_flight = 0;
    std::size_t buffered_total = 0;
    staged_total = 0;
    for (std::size_t v = 0; v < vcs; ++v) {
      staged_total += staged[v];
      in_flight += staged[v] + (cfg.window - tx.credits(v));
      buffered_total += buffered[v];
    }
    // Only the sender drives the forward wire and only the receiver the
    // reverse one, so a valid committed beat is the endpoint's dirty flag.
    const bool fwd_valid = wires.fwd->read().valid;
    const bool rev_valid = wires.rev->read().valid;
    ASSERT_EQ(tx.gate_idle(), staged_total == 0 && !fwd_valid && !rev_valid)
        << "cycle " << cycle;
    ASSERT_EQ(tx.in_flight(), in_flight) << "cycle " << cycle;
    ASSERT_EQ(tx.credit_stalls(kernel.cycle()), stalls) << "cycle " << cycle;
    ASSERT_EQ(rx.buffered(), buffered_total) << "cycle " << cycle;
    ASSERT_EQ(rx.gate_idle(), buffered_total == 0 && !fwd_valid && !rev_valid)
        << "cycle " << cycle;
  }
  // The schedule starved lanes, slept through some of the starved
  // cycles, and drained back to idle, losslessly.
  EXPECT_GT(slept_stalls, 0u);
  EXPECT_GT(stalls, slept_stalls);
  EXPECT_TRUE(tx.gate_idle());
  EXPECT_TRUE(rx.gate_idle());
  EXPECT_EQ(tx.in_flight(), 0u);
  EXPECT_EQ(got, sent);
}

INSTANTIATE_TEST_SUITE_P(Lanes, CreditCounters,
                         ::testing::Values<std::size_t>(1, 2, 4));

TEST(FlowControl, NamesRoundTrip) {
  EXPECT_STREQ(flow_control_name(FlowControl::kAckNack), "ack_nack");
  EXPECT_STREQ(flow_control_name(FlowControl::kCredit), "credit");
  EXPECT_EQ(parse_flow_control("ack_nack"), FlowControl::kAckNack);
  EXPECT_EQ(parse_flow_control("credit"), FlowControl::kCredit);
  EXPECT_THROW(parse_flow_control("stop_and_wait"), Error);
}

TEST(FlowControl, SeamDispatchesToGoBackN) {
  // The ack_nack flavour of the seam must behave exactly like the bare
  // go-back-N endpoints, counters included.
  Harness h(120, 2, 0.4, FlowControl::kAckNack, 23);
  h.run_to_done(200000);
  ASSERT_TRUE(h.sender.done());
  h.expect_all_delivered(120);
  EXPECT_GT(h.receiver.rx().flow_rejections(), 0u);
  EXPECT_GT(h.sender.tx().retransmissions(), 0u);
  EXPECT_EQ(h.sender.tx().credit_stalls(h.kernel.cycle()), 0u);
}

}  // namespace
}  // namespace xpl::link

namespace xpl {
namespace {

noc::NetworkConfig credit_config() {
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  cfg.flow = link::FlowControl::kCredit;
  return cfg;
}

TEST(CreditNetwork, RequiresReliableLinks) {
  noc::NetworkConfig cfg = credit_config();
  cfg.bit_error_rate = 0.001;
  EXPECT_THROW(
      noc::Network(
          topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg),
      Error);
}

TEST(CreditNetwork, RunsTrafficWithZeroRetransmissions) {
  noc::Network net(
      topology::make_mesh(3, 3, topology::NiPlan::uniform(9, 1, 1)),
      credit_config());

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.25;  // loaded: back-pressure must appear
  tcfg.seed = 11;
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(2000);
  net.run_until_quiescent(50000);
  ASSERT_TRUE(net.quiescent());

  const auto stats = traffic::collect_run(net, 2000);
  EXPECT_GT(stats.transactions, 0u);
  EXPECT_EQ(stats.retransmissions, 0u);       // credits never retransmit
  EXPECT_GT(stats.credit_stalls, 0u);         // but they do stall
  EXPECT_GT(stats.latency.count, 0u);
}

TEST(CreditNetwork, AckNackModeReportsZeroCreditStalls) {
  noc::NetworkConfig cfg = credit_config();
  cfg.flow = link::FlowControl::kAckNack;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.2;
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(1000);
  net.run_until_quiescent(50000);
  EXPECT_EQ(net.total_credit_stalls(), 0u);
}

TEST(CreditSweep, FlowAxisRunsBothProtocols) {
  const sweep::SweepSpec spec = sweep::parse_sweep(
      "sweep flow_axis\n"
      "seed 5\n"
      "cycles 800\n"
      "width 2\nheight 2\n"
      "flow ack_nack credit\n"
      "injection_rate 0.1\n");
  EXPECT_EQ(spec.num_points(), 2u);

  const sweep::ResultTable table = sweep::SweepRunner(1).run(spec);
  ASSERT_EQ(table.size(), 2u);
  ASSERT_TRUE(table.row(0).ok) << table.row(0).error;
  ASSERT_TRUE(table.row(1).ok) << table.row(1).error;
  EXPECT_EQ(table.row(0).point.net.flow, link::FlowControl::kAckNack);
  EXPECT_EQ(table.row(1).point.net.flow, link::FlowControl::kCredit);
  EXPECT_NE(table.row(1).point.label().find("credit"), std::string::npos);
  EXPECT_EQ(table.row(1).retransmissions, 0u);

  // Sweeping the flow axis switches the exporters to the extended
  // column set; both rows carry it.
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find(",flow,"), std::string::npos);
  EXPECT_NE(csv.find(",credit_stalls,"), std::string::npos);
  EXPECT_NE(table.to_json().find("\"flow\": \"credit\""),
            std::string::npos);
}

TEST(CreditSweep, DefaultedFlowAxisKeepsLegacyColumns) {
  const sweep::SweepSpec spec = sweep::parse_sweep(
      "sweep legacy\nseed 5\ncycles 400\nwidth 2\nheight 2\n"
      "injection_rate 0.05\n");
  const sweep::ResultTable table = sweep::SweepRunner(1).run(spec);
  const std::string csv = table.to_csv();
  EXPECT_EQ(csv.find(",flow,"), std::string::npos);
  EXPECT_EQ(csv.find("credit_stalls"), std::string::npos);
  EXPECT_EQ(table.to_json().find("\"flow\""), std::string::npos);
}

TEST(CreditSweep, SweptFlowAxisForcesColumnsEvenWhenAllRowsAckNack) {
  // Schema stability under sampling: a campaign that *sweeps* the flow
  // axis must export the extended columns even if every drawn/realized
  // point is ack_nack (possible under `samples N`), so one spec always
  // yields one schema.
  const sweep::SweepSpec spec = sweep::parse_sweep(
      "sweep sampled\nseed 5\ncycles 400\nwidth 2\nheight 2\n"
      "flow ack_nack ack_nack\n"  // swept axis, only ack_nack realized
      "injection_rate 0.05\n");
  const sweep::ResultTable table = sweep::SweepRunner(1).run(spec);
  for (const auto& r : table.rows()) {
    ASSERT_EQ(r.point.net.flow, link::FlowControl::kAckNack);
  }
  EXPECT_NE(table.to_csv().find(",flow,"), std::string::npos);
  EXPECT_NE(table.to_json().find("\"flow\": \"ack_nack\""),
            std::string::npos);
}

TEST(CreditSweep, SpecRoundTripsFlowAxis) {
  const char* text =
      "sweep ft\nflow ack_nack credit\nwidth 2\nheight 2\n";
  const sweep::SweepSpec spec = sweep::parse_sweep(text);
  ASSERT_EQ(spec.flows.size(), 2u);
  const std::string canon = sweep::write_sweep(spec);
  EXPECT_NE(canon.find("flow ack_nack credit"), std::string::npos);
  const sweep::SweepSpec again = sweep::parse_sweep(canon);
  EXPECT_EQ(sweep::write_sweep(again), canon);
  EXPECT_THROW(sweep::parse_sweep("sweep bad\nflow handshake\n"), Error);
}

}  // namespace
}  // namespace xpl
