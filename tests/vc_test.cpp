// Virtual channels: per-lane link protocols, dateline lane assignment,
// the VC-aware deadlock checker, and deadlock-free minimal routing on
// rings and tori end to end.
#include <gtest/gtest.h>

#include <set>

#include "src/common/error.hpp"
#include "src/link/flow.hpp"
#include "src/link/goback_n.hpp"
#include "src/link/link.hpp"
#include "src/noc/network.hpp"
#include "src/sweep/result.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/deadlock.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl {
namespace {

using topology::NiPlan;
using topology::RoutingAlgorithm;

Flit make_flit(std::uint8_t vc, std::uint64_t tag, bool head = true,
               bool tail = true) {
  BitVector payload(32);
  payload.deposit(0, 32, tag);
  Flit flit(std::move(payload), head, tail);
  flit.vc = vc;
  return flit;
}

// ---------------------------------------------------------------- links

// A stalled lane must not block the other lane of the same physical wire:
// the head-of-line relief per-VC flow control exists for.
TEST(VcLink, GoBackNLanesAreIndependent) {
  sim::Kernel kernel;
  const link::LinkWires wires = link::LinkWires::make(kernel);
  link::ProtocolConfig proto = link::ProtocolConfig::for_link(0);
  proto.vcs = 2;
  link::GoBackNSender tx(wires, proto);
  link::GoBackNReceiver rx(wires, proto);

  std::size_t lane1_accepted = 0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    tx.begin_cycle();
    if (tx.can_accept(0)) tx.accept(make_flit(0, 0xA0 + cycle));
    if (tx.can_accept(1)) tx.accept(make_flit(1, 0xB0 + cycle));
    tx.end_cycle();
    kernel.step();
    // Lane 0 is wedged (no buffer space downstream); lane 1 drains.
    if (auto flit = rx.begin_cycle(/*can_take_mask=*/0b10)) {
      EXPECT_EQ(flit->vc, 1);
      ++lane1_accepted;
    }
    rx.end_cycle();
    kernel.step();
  }
  EXPECT_GT(lane1_accepted, 5u);
  EXPECT_GT(rx.flow_rejections(), 0u);  // lane 0 nACKed for flow
  EXPECT_GT(tx.in_flight(), 0u);        // lane 0's window is parked
}

TEST(VcLink, GoBackNLanesKeepIndependentSequences) {
  sim::Kernel kernel;
  const link::LinkWires wires = link::LinkWires::make(kernel);
  link::ProtocolConfig proto = link::ProtocolConfig::for_link(0);
  proto.vcs = 4;
  link::GoBackNSender tx(wires, proto);
  link::GoBackNReceiver rx(wires, proto);

  // Interleave lanes; every flit must arrive exactly once, in per-lane
  // order, carrying its lane tag.
  std::vector<std::vector<std::uint64_t>> got(4);
  std::size_t sent = 0;
  for (int cycle = 0; cycle < 64; ++cycle) {
    tx.begin_cycle();
    const std::uint8_t lane = static_cast<std::uint8_t>(cycle % 4);
    if (tx.can_accept(lane)) {
      tx.accept(make_flit(lane, 100 * lane + sent));
      ++sent;
    }
    tx.end_cycle();
    kernel.step();
    if (auto flit = rx.begin_cycle(0b1111)) {
      got[flit->vc].push_back(flit->payload.slice(0, 32));
    }
    rx.end_cycle();
    kernel.step();
  }
  std::size_t received = 0;
  for (std::size_t v = 0; v < 4; ++v) {
    for (std::size_t k = 0; k + 1 < got[v].size(); ++k) {
      EXPECT_LT(got[v][k], got[v][k + 1]);  // in order within the lane
    }
    received += got[v].size();
  }
  EXPECT_GT(received, 32u);
  EXPECT_EQ(rx.crc_rejections(), 0u);
}

TEST(VcLink, CreditLanesAreIndependent) {
  sim::Kernel kernel;
  const link::LinkWires wires = link::LinkWires::make(kernel);
  link::ProtocolConfig proto = link::ProtocolConfig::for_link(0);
  proto.vcs = 2;
  link::CreditSender tx(wires, proto);
  link::CreditReceiver rx(wires, proto);

  std::size_t lane1_accepted = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    tx.begin_cycle(kernel.cycle());
    if (tx.can_accept(0)) tx.accept(make_flit(0, cycle));
    if (tx.can_accept(1)) tx.accept(make_flit(1, cycle));
    tx.end_cycle();
    kernel.step();
    if (auto flit = rx.begin_cycle(/*can_take_mask=*/0b10)) {
      EXPECT_EQ(flit->vc, 1);
      ++lane1_accepted;
    }
    rx.end_cycle();
    kernel.step();
  }
  // Lane 0 burned its credits and parked; lane 1 kept moving.
  EXPECT_EQ(tx.credits(0), 0u);
  EXPECT_GT(lane1_accepted, 10u);

  // Stop offering traffic: once lane 1 drains, the sender sits idle with
  // lane 0's whole window parked downstream — the credit-stall signal.
  for (int cycle = 0; cycle < 10; ++cycle) {
    tx.begin_cycle(kernel.cycle());
    tx.end_cycle();
    kernel.step();
    rx.begin_cycle(/*can_take_mask=*/0b10);
    rx.end_cycle();
    kernel.step();
  }
  EXPECT_GT(tx.credit_stalls(kernel.cycle()), 0u);
}

// ------------------------------------------------- dateline assignment

TEST(VcRouting, DatelineLanesOnRing) {
  const auto topo = make_ring(8, NiPlan::uniform(8, 1, 1));
  // Initiator on switch 6 -> target on switch 1: the minimal CW arc
  // crosses the 7->0 wrap (the dateline), so the lane bumps to 1 there.
  const auto inis = topo.initiator_ids();
  const auto tgts = topo.target_ids();
  const Route route = topology::compute_route(
      topo, inis[6], tgts[1], RoutingAlgorithm::kShortestPath);
  const auto lanes = topology::dateline_route_vcs(topo, inis[6], route, 2);
  ASSERT_EQ(lanes.size(), 3u);  // 6->7, 7->0, 0->1
  EXPECT_EQ(lanes[0], 0);
  EXPECT_EQ(lanes[1], 1);  // the wrap link itself travels on lane 1
  EXPECT_EQ(lanes[2], 1);

  // A route that never wraps stays on lane 0.
  const Route inner = topology::compute_route(
      topo, inis[1], tgts[3], RoutingAlgorithm::kShortestPath);
  for (const auto lane :
       topology::dateline_route_vcs(topo, inis[1], inner, 2)) {
    EXPECT_EQ(lane, 0);
  }
}

TEST(VcRouting, DatelineLanesResetPerTorusDimension) {
  const auto topo = make_torus(4, 4, NiPlan::uniform(16, 1, 1));
  const auto inis = topo.initiator_ids();
  const auto tgts = topo.target_ids();
  // Every pair: lanes must be in {0, 1} with 2 VCs — the per-dimension
  // reset keeps one dateline bump per dimension sufficient.
  for (const auto src : inis) {
    for (const auto dst : tgts) {
      if (topo.ni(src).switch_id == topo.ni(dst).switch_id) continue;
      const Route route = topology::compute_route(
          topo, src, dst, RoutingAlgorithm::kShortestPath);
      const auto lanes =
          topology::dateline_route_vcs(topo, src, route, 2);
      for (const auto lane : lanes) EXPECT_LE(lane, 1);
    }
  }
}

TEST(VcRouting, MinimalRoutesStayShortestOnAnnotatedTopologies) {
  // Class-monotone minimal routing must not stretch paths: torus distance
  // is the per-dimension wrap distance sum; spidergon distance is the
  // cross/ring composition.
  const auto torus = make_torus(4, 4, NiPlan::uniform(16, 1, 1));
  const auto inis = torus.initiator_ids();
  const auto tgts = torus.target_ids();
  for (const auto src : inis) {
    for (const auto dst : tgts) {
      const auto a = torus.ni(src).switch_id;
      const auto b = torus.ni(dst).switch_id;
      if (a == b) continue;
      const int dx = std::abs(int(a % 4) - int(b % 4));
      const int dy = std::abs(int(a / 4) - int(b / 4));
      const std::size_t dist = static_cast<std::size_t>(
          std::min(dx, 4 - dx) + std::min(dy, 4 - dy));
      const Route route = topology::compute_route(
          torus, src, dst, RoutingAlgorithm::kShortestPath);
      EXPECT_EQ(route.size(), dist + 1);  // + ejection selector
    }
  }
}

// ---------------------------------------------------- VC-aware checker

TEST(VcDeadlock, RingMinimalFlaggedAtOneLaneProvedAtTwo) {
  const auto topo = make_ring(8, NiPlan::uniform(8, 1, 1));
  const auto tables =
      topology::compute_all_routes(topo, RoutingAlgorithm::kShortestPath);

  const auto p1 = topology::make_vc_policy(
      topo, RoutingAlgorithm::kShortestPath, 1);
  EXPECT_FALSE(p1.dateline);
  EXPECT_FALSE(topology::check_deadlock(topo, tables, p1).deadlock_free);

  const auto p2 = topology::make_vc_policy(
      topo, RoutingAlgorithm::kShortestPath, 2);
  EXPECT_TRUE(p2.dateline);
  EXPECT_TRUE(topology::check_deadlock(topo, tables, p2).deadlock_free);
}

TEST(VcDeadlock, TorusMinimalFlaggedAtOneLaneProvedAtTwo) {
  const auto topo = make_torus(4, 4, NiPlan::uniform(16, 1, 1));
  const auto tables =
      topology::compute_all_routes(topo, RoutingAlgorithm::kShortestPath);
  EXPECT_FALSE(
      topology::check_deadlock(
          topo, tables,
          topology::make_vc_policy(topo, RoutingAlgorithm::kShortestPath, 1))
          .deadlock_free);
  EXPECT_TRUE(
      topology::check_deadlock(
          topo, tables,
          topology::make_vc_policy(topo, RoutingAlgorithm::kShortestPath, 2))
          .deadlock_free);
}

TEST(VcDeadlock, SpidergonMinimalProvedAtTwoLanes) {
  const auto topo = make_spidergon(8, NiPlan::uniform(8, 1, 1));
  const auto tables =
      topology::compute_all_routes(topo, RoutingAlgorithm::kShortestPath);
  EXPECT_TRUE(
      topology::check_deadlock(
          topo, tables,
          topology::make_vc_policy(topo, RoutingAlgorithm::kShortestPath, 2))
          .deadlock_free);
}

TEST(VcDeadlock, LanePreservingSpreadIsVcsCopies) {
  // Round-robin lane assignment cannot fix a deadlocking topology: the
  // graph is just vcs disjoint copies of the single-lane graph.
  topology::Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_switch();
  for (std::uint32_t i = 0; i < 4; ++i) topo.add_link(i, (i + 1) % 4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    topo.attach_initiator(i);
    topo.attach_target(i);
  }
  const auto tables =
      topology::compute_all_routes(topo, RoutingAlgorithm::kShortestPath);
  const auto report = topology::check_deadlock(
      topo, tables, topology::VcPolicy{/*vcs=*/2, /*dateline=*/false});
  EXPECT_FALSE(report.deadlock_free);

  // And up*/down* stays clean in every lane.
  const auto ring = make_ring(6, NiPlan::uniform(6, 1, 1));
  const auto ud =
      topology::compute_all_routes(ring, RoutingAlgorithm::kUpDown);
  EXPECT_TRUE(topology::check_deadlock(
                  ring, ud, topology::VcPolicy{/*vcs=*/4, /*dateline=*/false})
                  .deadlock_free);
}

// ------------------------------------------------------- whole network

noc::NetworkConfig vc_config(RoutingAlgorithm routing, std::size_t vcs) {
  noc::NetworkConfig cfg;
  cfg.routing = routing;
  cfg.target_window = 1 << 12;
  cfg.vcs = vcs;
  return cfg;
}

/// Wedge diagnosis for a network that failed to drain: every switch's
/// per-lane occupancy and wormhole-lock state.
std::string wedged_state(noc::Network& net) {
  std::string out = "network failed to drain (deadlock?):";
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    out += "\n  " + net.switch_at(s).debug_state();
  }
  return out;
}

/// Saturates `net` for `cycles`, then requires full drain and that every
/// injected transaction completed.
void run_saturated(noc::Network& net, std::size_t cycles = 1500) {
  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.30;
  tcfg.seed = 11;
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(cycles);
  net.run_until_quiescent(400000);
  ASSERT_TRUE(net.quiescent()) << wedged_state(net);
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    completed += net.master(i).completed().size();
  }
  EXPECT_EQ(completed, driver.injected());
  EXPECT_GT(completed, 0u);
}

TEST(VcNetwork, RingMinimalRejectedWithoutLanes) {
  EXPECT_THROW(noc::Network(make_ring(8, NiPlan::uniform(8, 1, 1)),
                            vc_config(RoutingAlgorithm::kShortestPath, 1)),
               Error);
}

TEST(VcNetwork, RingMinimalSaturatesWithTwoLanes) {
  noc::Network net(make_ring(8, NiPlan::uniform(8, 1, 1)),
                   vc_config(RoutingAlgorithm::kShortestPath, 2));
  EXPECT_TRUE(net.deadlock_report().deadlock_free);
  run_saturated(net);
}

TEST(VcNetwork, TorusMinimalRejectedWithoutLanes) {
  EXPECT_THROW(noc::Network(make_torus(4, 4, NiPlan::uniform(16, 1, 1)),
                            vc_config(RoutingAlgorithm::kShortestPath, 1)),
               Error);
}

TEST(VcNetwork, TorusMinimalSaturatesWithTwoLanes) {
  noc::Network net(make_torus(4, 4, NiPlan::uniform(16, 1, 1)),
                   vc_config(RoutingAlgorithm::kShortestPath, 2));
  EXPECT_TRUE(net.deadlock_report().deadlock_free);
  run_saturated(net);
}

TEST(VcNetwork, MeshXyWithLanesCompletesEveryPair) {
  // Each target gets its own OCP thread, so the write/read pairs ride
  // different lanes (lane = thread % vcs) while staying ordered within
  // their thread — the ordering contract lanes must preserve.
  noc::NetworkConfig cfg = vc_config(RoutingAlgorithm::kXY, 2);
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    for (std::size_t t = 0; t < net.num_targets(); ++t) {
      ocp::Transaction wr;
      wr.cmd = ocp::Cmd::kWriteNp;
      wr.addr = net.target_base(t) + 64 * i;  // 4-beat bursts: no overlap
      wr.burst_len = 4;
      wr.thread_id = static_cast<std::uint32_t>(t % 4);
      wr.data = {1 + i, 2 + t, 3, 4};
      net.master(i).push_transaction(wr);
      ocp::Transaction rd;
      rd.cmd = ocp::Cmd::kRead;
      rd.addr = net.target_base(t) + 64 * i;
      rd.burst_len = 4;
      rd.thread_id = static_cast<std::uint32_t>(t % 4);
      net.master(i).push_transaction(rd);
    }
  }
  net.run_until_quiescent(60000);
  ASSERT_TRUE(net.quiescent());
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    const auto& done = net.master(i).completed();
    ASSERT_EQ(done.size(), 2 * net.num_targets());
    // Threads complete independently; verify the read data as a set.
    std::set<std::pair<std::uint64_t, std::uint64_t>> reads;
    for (const auto& result : done) {
      EXPECT_EQ(result.resp, ocp::Resp::kDva);
      if (result.data.size() == 4) {
        reads.insert({result.data[0], result.data[1]});
      }
    }
    ASSERT_EQ(reads.size(), net.num_targets());
    for (std::size_t t = 0; t < net.num_targets(); ++t) {
      EXPECT_TRUE(reads.count({1 + i, 2 + t})) << "pair " << i << "," << t;
    }
  }
}

TEST(VcNetwork, FourLanesCarrySaturatedCreditTraffic) {
  noc::NetworkConfig cfg = vc_config(RoutingAlgorithm::kXY, 4);
  cfg.flow = link::FlowControl::kCredit;
  noc::Network net(
      topology::make_mesh(3, 3, topology::NiPlan::uniform(9, 1, 1)), cfg);
  run_saturated(net, 1000);
  EXPECT_EQ(net.total_retransmissions(), 0u);
}

// A switch with more than 64 (input, lane) slots keeps its request masks
// in several words. A 2x2 cmesh at concentration 4 gives every switch 8 NI
// ports plus 2 mesh ports, 80 slots at 8 lanes. The run's statistics,
// drain cycle and signal digests under both flows were recorded on
// the lane-scanning switch and must not move.
TEST(VcNetwork, MoreThan64LaneSlotsPerSwitchRunUnchanged) {
  struct Expected {
    link::FlowControl flow;
    const char* stats;
    std::uint64_t drained_at;
    std::uint64_t digests;
  };
  const Expected cases[] = {
      {link::FlowControl::kAckNack,
       "txns=1007 cycles=1500 thru=0.671333 txn/cy; latency{n=883 "
       "mean=26.0306 min=1 max=92 p50=30 p95=59} link_flits=17509 retx=197 "
       "util=0.16212",
       1540, 15137802035556553098ull},
      {link::FlowControl::kCredit,
       "txns=1007 cycles=1500 thru=0.671333 txn/cy; latency{n=883 "
       "mean=25.4575 min=1 max=83 p50=30 p95=57} link_flits=16499 retx=0 "
       "credit_stalls=21 util=0.152769",
       1546, 18007852011086883693ull},
  };
  for (const Expected& want : cases) {
    SCOPED_TRACE(link::flow_control_name(want.flow));
    noc::NetworkConfig cfg = vc_config(RoutingAlgorithm::kXY, 8);
    cfg.flow = want.flow;
    cfg.num_threads = 8;  // lane = thread % vcs: every lane carries traffic
    noc::Network net(topology::make_cmesh(2, 2, 4), cfg);
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      const switchlib::SwitchConfig& sw = net.switch_at(s).config();
      ASSERT_GT(sw.num_inputs * sw.vcs, 64u);
    }
    traffic::TrafficConfig tcfg;
    tcfg.injection_rate = 0.04;
    tcfg.seed = 7;
    traffic::TrafficDriver driver(net, tcfg);
    // The signal digests every 100 cycles, folded into one number.
    constexpr std::uint64_t kCycles = 1500;
    std::uint64_t digests = 0;
    for (std::uint64_t c = 0; c < kCycles; c += 100) {
      driver.run(100);
      digests = digests * 0x100000001B3ull ^ net.kernel().digest();
    }
    net.run_until_quiescent(200000);
    ASSERT_TRUE(net.quiescent()) << wedged_state(net);
    EXPECT_EQ(traffic::collect_run(net, kCycles).to_string(), want.stats);
    EXPECT_EQ(net.kernel().cycle(), want.drained_at);
    EXPECT_EQ(digests, want.digests);
  }
}

TEST(VcNetwork, ErrorInjectionRecoversAcrossLanes) {
  // The go-back-N story must survive the lane refactor: corrupted flits
  // on any lane are nACKed and retransmitted on that lane.
  noc::NetworkConfig cfg = vc_config(RoutingAlgorithm::kXY, 2);
  cfg.bit_error_rate = 2e-3;
  cfg.crc = CrcKind::kCrc16;
  cfg.seed = 5;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1),
                          /*link_stages=*/1),
      cfg);
  for (int k = 0; k < 16; ++k) {
    ocp::Transaction wr;
    wr.cmd = ocp::Cmd::kWriteNp;
    wr.addr = net.target_base((k + 1) % 4) + 8 * k;
    wr.burst_len = 4;
    wr.data = {1ull * k, 2ull * k, 3ull * k, 4ull * k};
    net.master(k % 4).push_transaction(wr);
  }
  net.run_until_quiescent(200000);
  ASSERT_TRUE(net.quiescent());
  std::size_t completed = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto& result : net.master(i).completed()) {
      EXPECT_EQ(result.resp, ocp::Resp::kDva);
      ++completed;
    }
  }
  EXPECT_EQ(completed, 16u);
  EXPECT_GT(net.total_retransmissions(), 0u);
}

// ----------------------------------------------------- sweep plumbing

TEST(VcSweep, VcsAxisColumnsOnlyWhenSwept) {
  EXPECT_EQ(sweep::parse_sweep("cycles 1\n").grid_size(), 1u);

  sweep::SweepSpec spec = sweep::parse_sweep(
      "cycles 100\nwidth 2\nheight 2\nvcs 1 2\n");
  EXPECT_EQ(spec.grid_size(), 2u);
  const auto p0 = spec.point(0);
  const auto p1 = spec.point(1);
  EXPECT_EQ(p0.net.vcs, 1u);
  EXPECT_EQ(p1.net.vcs, 2u);
  EXPECT_EQ(p0.label().find("_v"), std::string::npos);
  EXPECT_NE(p1.label().find("_v2"), std::string::npos);

  // vcs column appears exactly when the axis departs from {1}.
  sweep::ResultTable plain(1);
  sweep::SweepResult r;
  r.point = p0;
  r.ok = true;
  plain.set(r);
  EXPECT_EQ(plain.to_csv().find(",vcs,"), std::string::npos);

  sweep::ResultTable swept(1);
  swept.mark_vcs_axis();
  swept.set(r);
  EXPECT_NE(swept.to_csv().find(",vcs,"), std::string::npos);
  EXPECT_NE(swept.to_json().find("\"vcs\""), std::string::npos);

  // `routing minimal` campaigns resolve the algorithm per point.
  sweep::SweepSpec minimal = sweep::parse_sweep(
      "cycles 100\ntopology ring\nwidth 4\nrouting minimal\nvcs 2\n");
  EXPECT_EQ(minimal.point(0).net.routing,
            topology::RoutingAlgorithm::kShortestPath);
  EXPECT_THROW(sweep::parse_sweep("routing bogus\n"), Error);
  EXPECT_THROW(sweep::parse_sweep("vcs 99\n"), Error);
}

}  // namespace
}  // namespace xpl
