// ACK/nACK go-back-N protocol: lossless in-order delivery over unreliable
// pipelined links, flow control, retransmission accounting.
#include "src/link/goback_n.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "src/common/rng.hpp"
#include "src/sim/kernel.hpp"

namespace xpl::link {
namespace {

// Streams `total` numbered flits through a GoBackNSender.
class TestSender : public sim::Module {
 public:
  TestSender(LinkWires wires, const ProtocolConfig& cfg, std::size_t total)
      : sim::Module("sender"), tx_(wires, cfg), total_(total) {}

  void tick(sim::Kernel&) override {
    tx_.begin_cycle();
    if (next_ < total_ && tx_.can_accept()) {
      Flit f(BitVector(32, next_ & 0xFFFFFFFF), /*head=*/next_ == 0,
             /*tail=*/next_ + 1 == total_);
      // Treat the whole stream as one long packet for simplicity.
      f.head = true;
      f.tail = true;
      f.payload = BitVector(32, next_ & 0xFFFFFFFF);
      tx_.accept(std::move(f));
      ++next_;
    }
    tx_.end_cycle();
  }

  bool done() const { return next_ == total_ && tx_.idle(); }
  const GoBackNSender& tx() const { return tx_; }

 private:
  GoBackNSender tx_;
  std::size_t next_ = 0;
  std::size_t total_;
};

// Receives flits with a configurable stall probability (exercises the
// flow-control nACK path) and records payloads.
class TestReceiver : public sim::Module {
 public:
  TestReceiver(LinkWires wires, const ProtocolConfig& cfg, double stall,
               std::uint64_t seed)
      : sim::Module("receiver"), rx_(wires, cfg), stall_(stall), rng_(seed) {}

  void tick(sim::Kernel&) override {
    const bool can_take = !rng_.chance(stall_);
    if (auto flit = rx_.begin_cycle(can_take)) {
      values_.push_back(flit->payload.to_u64());
    }
    rx_.end_cycle();
  }

  const std::vector<std::uint64_t>& values() const { return values_; }
  const GoBackNReceiver& rx() const { return rx_; }

 private:
  GoBackNReceiver rx_;
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

  Harness(std::size_t total, std::size_t stages, double ber, double stall,
          std::uint64_t seed = 3)
      : up(LinkWires::make(kernel)),
        down(LinkWires::make(kernel)),
        link("link", up, down,
             PipelinedLink::Config{stages, ber, seed}),
        sender(up, ProtocolConfig::for_link(stages), total),
        receiver(down, ProtocolConfig::for_link(stages), stall, seed + 1) {
    kernel.add_module(sender);
    kernel.add_module(link);
    kernel.add_module(receiver);
  }

  void run_to_done(std::size_t max_cycles) {
    kernel.run_until([&] { return sender.done(); }, max_cycles);
  }

  void expect_all_delivered(std::size_t total) {
    ASSERT_EQ(receiver.values().size(), total);
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(receiver.values()[i], i) << "out of order at " << i;
    }
  }
};

TEST(ProtocolConfig, ForLinkSizesWindowToRoundTrip) {
  for (std::size_t stages : {0u, 1u, 4u, 8u}) {
    const auto cfg = ProtocolConfig::for_link(stages);
    EXPECT_GE(cfg.window, 2 * (stages + 1));
    EXPECT_GT(std::size_t{1} << cfg.seq_bits, cfg.window);
  }
}

TEST(ProtocolConfig, ValidationCatchesBadSeqSpace) {
  ProtocolConfig cfg;
  cfg.window = 8;
  cfg.seq_bits = 3;  // space 8 == window: illegal
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(GoBackN, CleanLinkDeliversEverything) {
  Harness h(100, 0, 0.0, 0.0);
  h.run_to_done(2000);
  EXPECT_TRUE(h.sender.done());
  h.expect_all_delivered(100);
  EXPECT_EQ(h.sender.tx().retransmissions(), 0u);
  EXPECT_EQ(h.receiver.rx().crc_rejections(), 0u);
}

TEST(GoBackN, CleanPipelinedLinkSustainsFullThroughput) {
  const std::size_t total = 300;
  Harness h(total, 4, 0.0, 0.0);
  const auto cycles =
      h.kernel.run_until([&] { return h.sender.done(); }, 5000);
  h.expect_all_delivered(total);
  // Window covers the round trip: ~1 flit/cycle plus pipeline fill.
  EXPECT_LT(cycles, total + 50);
}

TEST(GoBackN, SurvivesBitErrors) {
  Harness h(200, 2, 0.002, 0.0);
  h.run_to_done(50000);
  ASSERT_TRUE(h.sender.done());
  h.expect_all_delivered(200);
  EXPECT_GT(h.sender.tx().retransmissions(), 0u);
  EXPECT_GT(h.receiver.rx().crc_rejections(), 0u);
}

TEST(GoBackN, SurvivesHeavyErrors) {
  Harness h(100, 1, 0.01, 0.0, 17);
  h.run_to_done(200000);
  ASSERT_TRUE(h.sender.done());
  h.expect_all_delivered(100);
}

TEST(GoBackN, FlowControlBackpressureIsLossless) {
  Harness h(150, 2, 0.0, 0.6);
  h.run_to_done(50000);
  ASSERT_TRUE(h.sender.done());
  h.expect_all_delivered(150);
  EXPECT_GT(h.receiver.rx().flow_rejections(), 0u);
}

TEST(GoBackN, ErrorsAndBackpressureTogether) {
  Harness h(120, 3, 0.005, 0.4, 23);
  h.run_to_done(200000);
  ASSERT_TRUE(h.sender.done());
  h.expect_all_delivered(120);
}

// Sweep the paper-relevant space: pipeline depth x error rate.
class GoBackNSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(GoBackNSweep, LosslessInOrderDelivery) {
  const auto [stages, ber] = GetParam();
  Harness h(80, stages, ber, 0.2,
            static_cast<std::uint64_t>(stages * 1000 + ber * 1e6));
  h.run_to_done(300000);
  ASSERT_TRUE(h.sender.done())
      << "stages=" << stages << " ber=" << ber;
  h.expect_all_delivered(80);
}

INSTANTIATE_TEST_SUITE_P(
    DepthByError, GoBackNSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 4, 8),
                       ::testing::Values(0.0, 0.001, 0.01)));

// ---- Receiver back-pressure paths (goback_n.cpp begin_cycle), driven
// wire by wire so each branch is pinned in isolation: the can_take ==
// false nACK, its flow_rejections_ accounting, and the silent drop of a
// stale flit racing a rewind. These are exactly the behaviours credit
// flow control (credit.hpp) replaces, so they are pinned here before the
// protocol seam.

// One receiver on bare wires; the test plays the sender by writing the
// forward wire directly and committing the kernel.
struct RxHarness {
  sim::Kernel kernel;
  LinkWires wires;
  ProtocolConfig cfg;
  GoBackNReceiver rx;

  RxHarness()
      : wires(LinkWires::make(kernel)),
        cfg(ProtocolConfig::for_link(0)),
        rx(wires, cfg) {}

  /// Puts a sealed flit with sequence `seq` on the forward wire.
  void drive_flit(std::uint8_t seq, std::uint64_t payload = 0xAB) {
    Flit f(BitVector(16, payload), /*head=*/true, /*tail=*/true);
    f.seqno = seq;
    flit_seal(f, cfg.crc);
    wires.fwd->write(FlitBeat{true, std::move(f)});
    kernel.step();
  }

  /// One receiver cycle against the current wire; returns the delivered
  /// flit (if any) and leaves the ACK wire committed for inspection.
  std::optional<Flit> cycle(bool can_take) {
    std::optional<Flit> flit;
    // The receiver's pointer is valid only until the step below.
    if (const Flit* accepted = rx.begin_cycle(can_take)) flit = *accepted;
    rx.end_cycle();
    kernel.step();
    return flit;
  }

  AckBeat ack() const { return wires.rev->read(); }
};

TEST(GoBackNReceiver, BackpressureNacksIntactInOrderFlit) {
  RxHarness h;
  h.drive_flit(0);
  // Intact, in order, but the owner has no buffer space: nACK(expected),
  // counted as a flow rejection, nothing delivered, expected_seq_ stays.
  EXPECT_FALSE(h.cycle(/*can_take=*/false).has_value());
  const AckBeat nack = h.ack();
  EXPECT_TRUE(nack.valid);
  EXPECT_FALSE(nack.ack);
  EXPECT_EQ(nack.seqno, 0u);
  EXPECT_EQ(h.rx.flow_rejections(), 1u);
  EXPECT_EQ(h.rx.flits_accepted(), 0u);

  // The retried flit (same sequence) goes through once space appears.
  h.drive_flit(0, 0xCD);
  const auto flit = h.cycle(/*can_take=*/true);
  ASSERT_TRUE(flit.has_value());
  EXPECT_EQ(flit->payload.to_u64(), 0xCDu);
  const AckBeat ack = h.ack();
  EXPECT_TRUE(ack.valid);
  EXPECT_TRUE(ack.ack);
  EXPECT_EQ(ack.seqno, 0u);
  EXPECT_EQ(h.rx.flow_rejections(), 1u);  // unchanged
  EXPECT_EQ(h.rx.flits_accepted(), 1u);
}

TEST(GoBackNReceiver, RepeatedBackpressureCountsEveryRejection) {
  RxHarness h;
  for (int i = 0; i < 5; ++i) {
    h.drive_flit(0);
    EXPECT_FALSE(h.cycle(/*can_take=*/false).has_value());
    EXPECT_FALSE(h.ack().ack);
  }
  EXPECT_EQ(h.rx.flow_rejections(), 5u);
  EXPECT_EQ(h.rx.crc_rejections(), 0u);
  EXPECT_EQ(h.rx.flits_accepted(), 0u);
}

TEST(GoBackNReceiver, StaleFlitAfterRewindIsDroppedSilently) {
  RxHarness h;
  // Deliver seq 0 so expected_seq_ advances to 1.
  h.drive_flit(0);
  ASSERT_TRUE(h.cycle(/*can_take=*/true).has_value());

  // A stale seq-0 flit races the rewind: dropped with *no* ACK or nACK
  // (nACKing again would only thrash a sender that is already resending)
  // and no rejection counter movement.
  h.drive_flit(0);
  EXPECT_FALSE(h.cycle(/*can_take=*/true).has_value());
  EXPECT_FALSE(h.ack().valid);
  EXPECT_EQ(h.rx.flow_rejections(), 0u);
  EXPECT_EQ(h.rx.crc_rejections(), 0u);
  EXPECT_EQ(h.rx.flits_accepted(), 1u);

  // The expected flit still goes through afterwards.
  h.drive_flit(1);
  EXPECT_TRUE(h.cycle(/*can_take=*/true).has_value());
  EXPECT_EQ(h.rx.flits_accepted(), 2u);
}

TEST(GoBackNReceiver, BackpressureNackWinsOverStaleDrop) {
  // Order of checks in begin_cycle: sequence before flow. A *stale* flit
  // under back-pressure is dropped silently (not flow-nACKed) — the
  // rejection counters must not move.
  RxHarness h;
  h.drive_flit(0);
  ASSERT_TRUE(h.cycle(/*can_take=*/true).has_value());
  h.drive_flit(0);  // stale
  EXPECT_FALSE(h.cycle(/*can_take=*/false).has_value());
  EXPECT_FALSE(h.ack().valid);
  EXPECT_EQ(h.rx.flow_rejections(), 0u);
}

TEST(GoBackN, SenderWindowNeverExceeded) {
  const auto cfg = ProtocolConfig::for_link(1);
  sim::Kernel kernel;
  auto wires = LinkWires::make(kernel);
  GoBackNSender tx(wires, cfg);
  // No receiver: nothing is ever acked; sender must stop at the window.
  std::size_t accepted = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    tx.begin_cycle();
    if (tx.can_accept()) {
      tx.accept(Flit(BitVector(8, static_cast<std::uint64_t>(cycle % 256)),
                     true, true));
      ++accepted;
    }
    tx.end_cycle();
    kernel.step();
  }
  EXPECT_EQ(accepted, cfg.window);
  EXPECT_EQ(tx.in_flight(), cfg.window);
}

}  // namespace
}  // namespace xpl::link
