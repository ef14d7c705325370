// Whole-network assembly: end-to-end transactions across real switches.
#include "src/noc/network.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::noc {
namespace {

NetworkConfig small_config() {
  NetworkConfig cfg;
  cfg.flit_width = 32;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  return cfg;
}

TEST(Network, BuildsMeshInventory) {
  Network net(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
              small_config());
  EXPECT_EQ(net.num_switches(), 4u);
  EXPECT_EQ(net.num_initiators(), 4u);
  EXPECT_EQ(net.num_targets(), 4u);
  // 8 grid links + 2 per NI.
  EXPECT_EQ(net.num_links(), 8u + 16u);
  EXPECT_TRUE(net.deadlock_report().deadlock_free);
  EXPECT_TRUE(net.quiescent());
}

TEST(Network, DerivedFormatIsConsistent) {
  Network net(topology::make_mesh(3, 4, topology::NiPlan::uniform(12, 1, 1)),
              small_config());
  const auto& f = net.format();
  EXPECT_LE(f.header.route_bits(), f.flit_width);
  EXPECT_EQ(f.header.max_hops, net.routes().max_hops());
  // 24 NIs need 5 node bits.
  EXPECT_EQ(f.header.node_bits, 5u);
}

TEST(Network, SingleReadAcrossMesh) {
  Network net(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
              small_config());
  // Farthest pair: initiator 0 (switch 0) -> target 3 (switch 3).
  net.slave(3).poke(0x10, 0xABCD);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net.target_base(3) + 0x10;
  txn.burst_len = 1;
  net.master(0).push_transaction(txn);
  net.run_until_quiescent(5000);
  ASSERT_EQ(net.master(0).completed().size(), 1u);
  const auto& result = net.master(0).completed()[0];
  EXPECT_EQ(result.resp, ocp::Resp::kDva);
  ASSERT_EQ(result.data.size(), 1u);
  EXPECT_EQ(result.data[0], 0xABCDu);
}

TEST(Network, WriteThenReadEveryPair) {
  Network net(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
              small_config());
  // Every initiator writes a unique value to every target, then reads it
  // back — full crossbar of NI pairs.
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    for (std::size_t t = 0; t < net.num_targets(); ++t) {
      ocp::Transaction wr;
      wr.cmd = ocp::Cmd::kWrite;
      wr.addr = net.target_base(t) + 8 * i;
      wr.burst_len = 1;
      wr.data = {0xA000 + 0x10 * i + t};
      net.master(i).push_transaction(wr);
    }
  }
  net.run_until_quiescent(20000);
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    for (std::size_t t = 0; t < net.num_targets(); ++t) {
      ocp::Transaction rd;
      rd.cmd = ocp::Cmd::kRead;
      rd.addr = net.target_base(t) + 8 * i;
      rd.burst_len = 1;
      net.master(i).push_transaction(rd);
    }
  }
  net.run_until_quiescent(40000);
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    const auto& completed = net.master(i).completed();
    ASSERT_EQ(completed.size(), 2 * net.num_targets());
    for (std::size_t t = 0; t < net.num_targets(); ++t) {
      const auto& result = completed[net.num_targets() + t];
      ASSERT_EQ(result.data.size(), 1u) << "pair " << i << "," << t;
      EXPECT_EQ(result.data[0], 0xA000 + 0x10 * i + t);
    }
  }
}

TEST(Network, BurstAcrossNetwork) {
  Network net(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
              small_config());
  ocp::Transaction wr;
  wr.cmd = ocp::Cmd::kWrite;
  wr.addr = net.target_base(2);
  wr.burst_len = 8;
  for (std::uint64_t b = 0; b < 8; ++b) wr.data.push_back(b * 3);
  net.master(1).push_transaction(wr);
  ocp::Transaction rd;
  rd.cmd = ocp::Cmd::kRead;
  rd.addr = net.target_base(2);
  rd.burst_len = 8;
  net.master(1).push_transaction(rd);
  net.run_until_quiescent(20000);
  ASSERT_EQ(net.master(1).completed().size(), 2u);
  const auto& result = net.master(1).completed()[1];
  ASSERT_EQ(result.data.size(), 8u);
  for (std::uint64_t b = 0; b < 8; ++b) EXPECT_EQ(result.data[b], b * 3);
}

TEST(Network, DeadlockingRoutesRejected) {
  // Unidirectional ring: every route wraps, the dependency graph is the
  // ring itself — guaranteed cyclic.
  auto uniring = [] {
    topology::Topology t;
    for (int i = 0; i < 4; ++i) t.add_switch();
    for (std::uint32_t i = 0; i < 4; ++i) t.add_link(i, (i + 1) % 4);
    for (std::uint32_t i = 0; i < 4; ++i) {
      t.attach_initiator(i);
      t.attach_target(i);
    }
    return t;
  };
  NetworkConfig cfg = small_config();
  cfg.routing = topology::RoutingAlgorithm::kShortestPath;
  EXPECT_THROW(Network(uniring(), cfg), Error);
  cfg.require_deadlock_free = false;
  Network net(uniring(), cfg);
  EXPECT_FALSE(net.deadlock_report().deadlock_free);
}

TEST(Network, UpDownOnRingWorksEndToEnd) {
  NetworkConfig cfg = small_config();
  cfg.routing = topology::RoutingAlgorithm::kUpDown;
  Network net(topology::make_ring(4, topology::NiPlan::uniform(4, 1, 1)),
              cfg);
  net.slave(2).poke(0, 0x55AA);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net.target_base(2);
  txn.burst_len = 1;
  net.master(0).push_transaction(txn);
  net.run_until_quiescent(5000);
  ASSERT_EQ(net.master(0).completed().size(), 1u);
  EXPECT_EQ(net.master(0).completed()[0].data.at(0), 0x55AAu);
}

TEST(Network, PipelinedLinksStillDeliver) {
  NetworkConfig cfg = small_config();
  Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1),
                          /*link_stages=*/3),
      cfg);
  net.slave(3).poke(0, 0x77);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net.target_base(3);
  txn.burst_len = 1;
  net.master(0).push_transaction(txn);
  net.run_until_quiescent(5000);
  ASSERT_EQ(net.master(0).completed().size(), 1u);
  EXPECT_EQ(net.master(0).completed()[0].data.at(0), 0x77u);
}

TEST(Network, ErrorInjectionRecoversEndToEnd) {
  NetworkConfig cfg = small_config();
  cfg.bit_error_rate = 2e-3;
  cfg.crc = CrcKind::kCrc16;  // escape probability ~2^-16: negligible here
  cfg.seed = 9;
  Network net(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1),
                                  /*link_stages=*/1),
              cfg);
  for (int k = 0; k < 20; ++k) {
    ocp::Transaction wr;
    wr.cmd = ocp::Cmd::kWriteNp;
    // Offset target by one so every packet crosses at least one grid link
    // (only switch-to-switch links inject errors).
    wr.addr = net.target_base((k + 1) % 4) + 8 * k;
    wr.burst_len = 4;
    wr.data = {1ull * k, 2ull * k, 3ull * k, 4ull * k};
    net.master(k % 4).push_transaction(wr);
  }
  net.run_until_quiescent(200000);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto& result : net.master(i).completed()) {
      EXPECT_EQ(result.resp, ocp::Resp::kDva);
      ++completed;
    }
  }
  EXPECT_EQ(completed, 20u);
  // With errors injected, retransmissions must have happened... unless we
  // got lucky; the rate is chosen to make that astronomically unlikely.
  EXPECT_GT(net.total_retransmissions(), 0u);
}

TEST(Network, SevenStageSwitchesSlowerThanTwoStage) {
  auto latency_with_pipeline = [](std::size_t extra) {
    NetworkConfig cfg = small_config();
    cfg.extra_switch_pipeline = extra;
    Network net(
        topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);
    net.slave(3).poke(0, 1);
    ocp::Transaction txn;
    txn.cmd = ocp::Cmd::kRead;
    txn.addr = net.target_base(3);
    txn.burst_len = 1;
    net.master(0).push_transaction(txn);
    net.run_until_quiescent(5000);
    const auto& result = net.master(0).completed().at(0);
    return result.complete_cycle - result.issue_cycle;
  };
  const auto lite = latency_with_pipeline(0);   // 2-stage switch
  const auto old = latency_with_pipeline(5);    // 7-stage switch
  // Request+response each traverse 3 switches: 6 extra hops x 5 stages.
  EXPECT_EQ(old, lite + 30);
}

TEST(Network, QuiescentDetectsInFlightWork) {
  Network net(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
              small_config());
  EXPECT_TRUE(net.quiescent());
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net.target_base(0);
  txn.burst_len = 1;
  net.master(3).push_transaction(txn);
  EXPECT_FALSE(net.quiescent());
  net.run_until_quiescent(5000);
  EXPECT_TRUE(net.quiescent());
}

/// Saturates `net` and requires a clean drain with every injected
/// transaction completed — the end-to-end "no deadlock, no loss" check.
/// On a wedge, the per-switch lane/lock dump names the blocking cycle.
void saturate_and_drain(noc::Network& net, std::size_t cycles = 1200) {
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.30;
  tcfg.seed = 3;
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(cycles);
  net.run_until_quiescent(400000);
  std::string wedge;
  if (!net.quiescent()) {
    wedge = "network failed to drain:";
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      wedge += "\n  " + net.switch_at(s).debug_state();
    }
  }
  ASSERT_TRUE(net.quiescent()) << wedge;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    completed += net.master(i).completed().size();
  }
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(completed, driver.injected());
}

TEST(Network, SpidergonSaturatedEndToEnd) {
  // Spidergon under up*/down*, single lane and two lanes: the network
  // must carry saturated traffic to completion either way.
  for (const std::size_t vcs : {1u, 2u}) {
    NetworkConfig cfg = small_config();
    cfg.routing = topology::RoutingAlgorithm::kUpDown;
    cfg.vcs = vcs;
    Network net(
        topology::make_spidergon(8, topology::NiPlan::uniform(8, 1, 1)),
        cfg);
    EXPECT_TRUE(net.deadlock_report().deadlock_free);
    saturate_and_drain(net);
  }
}

TEST(Network, SpidergonMinimalWithLanesSaturatedEndToEnd) {
  // Minimal (across-first) routing needs the dateline lanes: vcs = 2
  // passes the VC-aware checker and runs saturated to completion.
  NetworkConfig cfg = small_config();
  cfg.routing = topology::RoutingAlgorithm::kShortestPath;
  cfg.vcs = 2;
  Network net(
      topology::make_spidergon(8, topology::NiPlan::uniform(8, 1, 1)),
      cfg);
  EXPECT_TRUE(net.deadlock_report().deadlock_free);
  saturate_and_drain(net);
}

TEST(Network, BinaryTreeSaturatedEndToEnd) {
  // Complete binary tree, minimal routing (tree paths are unique, so
  // minimal == deadlock-free), single lane and two lanes.
  for (const std::size_t vcs : {1u, 2u}) {
    NetworkConfig cfg = small_config();
    cfg.routing = topology::RoutingAlgorithm::kShortestPath;
    cfg.vcs = vcs;
    Network net(
        topology::make_binary_tree(3, topology::NiPlan::uniform(7, 1, 1)),
        cfg);
    EXPECT_TRUE(net.deadlock_report().deadlock_free);
    saturate_and_drain(net);
  }
}

TEST(Network, PaperCaseStudyCarriesTraffic) {
  Network net(topology::make_paper_case_study(), small_config());
  EXPECT_EQ(net.num_initiators(), 8u);
  EXPECT_EQ(net.num_targets(), 11u);
  for (std::size_t i = 0; i < 8; ++i) {
    ocp::Transaction txn;
    txn.cmd = ocp::Cmd::kRead;
    txn.addr = net.target_base(i % 11);
    txn.burst_len = 2;
    net.master(i).push_transaction(txn);
  }
  net.run_until_quiescent(50000);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(net.master(i).completed().size(), 1u) << "master " << i;
  }
}

}  // namespace
}  // namespace xpl::noc
