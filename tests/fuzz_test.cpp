// Randomized stress tests across the stack: random irregular topologies,
// random traffic, random parameters — the invariants that must always
// hold: routes terminate correctly, up*/down* stays deadlock-free,
// every injected transaction completes, every byte survives. The traffic
// sweep runs through the differential kernel-equivalence harness, so
// each random network is simultaneously a leap-vs-full bit-exactness
// trial on a topology class the named generators cannot produce.
#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/noc/network.hpp"
#include "src/topology/deadlock.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"
#include "tests/support/differential.hpp"

namespace xpl {
namespace {

// Random connected topology: spanning tree + extra duplex chords.
topology::Topology random_topology(Rng& rng, std::size_t switches,
                                   std::size_t extra_chords,
                                   std::size_t max_stages) {
  topology::Topology topo;
  for (std::size_t s = 0; s < switches; ++s) topo.add_switch();
  // Random spanning tree keeps it connected.
  for (std::uint32_t s = 1; s < switches; ++s) {
    const auto parent = static_cast<std::uint32_t>(rng.next_below(s));
    topo.add_duplex(parent, s, rng.next_below(max_stages + 1));
  }
  for (std::size_t c = 0; c < extra_chords; ++c) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(switches));
    const auto b = static_cast<std::uint32_t>(rng.next_below(switches));
    if (a == b) continue;
    topo.add_duplex(a, b, rng.next_below(max_stages + 1));
  }
  // One initiator and one target per switch keeps every pair routable.
  for (std::uint32_t s = 0; s < switches; ++s) {
    topo.attach_initiator(s);
    topo.attach_target(s);
  }
  return topo;
}

class RandomTopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomTopologySweep, UpDownRoutesAndDeadlockFree) {
  Rng rng(1000 + GetParam());
  const std::size_t switches = 3 + rng.next_below(8);
  const auto topo =
      random_topology(rng, switches, rng.next_below(6), /*max_stages=*/2);
  topo.validate();
  const auto tables =
      topology::compute_all_routes(topo, topology::RoutingAlgorithm::kUpDown);
  EXPECT_TRUE(topology::check_deadlock(topo, tables).deadlock_free)
      << "seed " << GetParam();
  // Every route walks to its destination.
  tables.for_each([&](std::uint32_t src, std::uint32_t dst,
                      const topology::RouteRef& route) {
    const auto path =
        topology::route_switch_path(topo, src, route.to_route());
    EXPECT_EQ(path.back(), topo.ni(dst).switch_id);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologySweep, ::testing::Range(0, 20));

class RandomTrafficSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomTrafficSweep, EverythingCompletesOnRandomNetwork) {
  Rng rng(5000 + GetParam());
  const std::size_t switches = 3 + rng.next_below(5);
  auto topo =
      random_topology(rng, switches, rng.next_below(4), /*max_stages=*/1);

  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kUpDown;
  cfg.target_window = 1 << 12;
  cfg.flit_width = rng.chance(0.5) ? 32 : 64;
  cfg.arbiter = rng.chance(0.5) ? switchlib::ArbiterKind::kRoundRobin
                                : switchlib::ArbiterKind::kFixedPriority;
  cfg.bit_error_rate = rng.chance(0.5) ? 0.0 : 2e-4;
  cfg.crc = CrcKind::kCrc16;
  cfg.seed = 77 + GetParam();

  // Route field must fit the flit; deep random topologies can exceed it.
  const auto tables = topology::compute_all_routes(topo, cfg.routing);
  const auto format = HeaderFormat::for_network(
      topo.max_radix_out(), topo.num_nis(), tables.max_hops(),
      bits_for(cfg.target_window), cfg.max_burst, cfg.num_threads);
  if (format.route_bits() > cfg.flit_width) {
    GTEST_SKIP() << "route does not fit flit width for this sample";
  }

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.02 + rng.next_double() * 0.04;
  tcfg.max_burst = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  tcfg.seed = 123 + GetParam();

  // Twin networks, one per scheduler, through the shared differential
  // harness: the irregular graph must behave identically time-leap vs full.
  auto full_cfg = cfg;
  full_cfg.scheduler = sim::Scheduler::kFull;
  cfg.scheduler = sim::Scheduler::kTimeLeap;
  noc::Network full(topo, full_cfg);
  noc::Network leap(std::move(topo), cfg);
  traffic::TrafficDriver full_driver(full, tcfg);
  traffic::TrafficDriver leap_driver(leap, tcfg);
  const auto diff = testsupport::run_lockstep(
      full, leap, full_driver, leap_driver, 2500, 400000,
      "fuzz irregular topology, seed " + std::to_string(GetParam()));
  ASSERT_TRUE(diff.ok) << diff.detail;

  std::size_t completed = 0;
  for (std::size_t i = 0; i < leap.num_initiators(); ++i) {
    EXPECT_TRUE(leap.master(i).quiescent())
        << "seed " << GetParam() << " master " << i;
    completed += leap.master(i).completed().size();
  }
  EXPECT_EQ(completed, leap_driver.injected()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTrafficSweep, ::testing::Range(0, 15));

TEST(Fuzz, DataIntegritySweep) {
  // Random write/readback pairs across random networks: every byte back.
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(9000 + trial);
    auto topo = random_topology(rng, 4 + rng.next_below(3), 2, 0);
    noc::NetworkConfig cfg;
    cfg.routing = topology::RoutingAlgorithm::kUpDown;
    cfg.target_window = 1 << 12;
    noc::Network net(std::move(topo), cfg);

    struct Expect {
      std::size_t master;
      std::uint64_t value;
    };
    std::vector<Expect> expects;
    for (int k = 0; k < 12; ++k) {
      const auto m = rng.next_below(net.num_initiators());
      const auto t = rng.next_below(net.num_targets());
      const std::uint64_t value = rng.next_u64() & 0xFFFFFFFF;
      ocp::Transaction wr;
      wr.cmd = ocp::Cmd::kWriteNp;
      wr.addr = net.target_base(t) + 8 * (16 * m + k % 16);
      wr.burst_len = 1;
      wr.data = {value};
      net.master(m).push_transaction(wr);
      ocp::Transaction rd;
      rd.cmd = ocp::Cmd::kRead;
      rd.addr = wr.addr;
      rd.burst_len = 1;
      net.master(m).push_transaction(rd);
      expects.push_back({m, value});
    }
    net.run_until_quiescent(200000);
    // Each master issued pairs in order; reads are the 2nd, 4th, ...
    std::vector<std::size_t> seen(net.num_initiators(), 0);
    std::vector<std::vector<std::uint64_t>> reads(net.num_initiators());
    for (std::size_t i = 0; i < net.num_initiators(); ++i) {
      for (const auto& result : net.master(i).completed()) {
        if (!result.data.empty()) reads[i].push_back(result.data[0]);
      }
    }
    for (const auto& expect : expects) {
      auto& cursor = seen[expect.master];
      ASSERT_LT(cursor, reads[expect.master].size()) << "trial " << trial;
      EXPECT_EQ(reads[expect.master][cursor], expect.value)
          << "trial " << trial;
      ++cursor;
    }
  }
}

}  // namespace
}  // namespace xpl
