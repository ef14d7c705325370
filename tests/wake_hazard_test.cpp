// Wake-hazard regressions for the time-leap scheduler.
//
// A wake hazard is a path that hands a module new work without going
// through a watched-signal write — the time-leap kernel would skip the
// module forever (or miscount) unless the path explicitly re-arms it.
// Each test here pins one such path:
//
//  1. a passive ocp::Monitor on wires it does not own must still see
//     every beat, even when it was fast asleep between transactions
//     (second watcher slot on the data wires);
//  2. push_transaction into a *fully drained* network must complete,
//     and on the same cycle as under the full scheduler (the wake()
//     call arms the current tick phase, not just the next one);
//  3. a CreditSender parked at zero credits must keep counting its
//     per-cycle credit_stalls while its owner sleeps: no wire changes
//     and nothing wakes the owner, so the sender credits the slept
//     cycles itself (on its next begin_cycle, and in credit_stalls(now)
//     while the gap is still open).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/noc/network.hpp"
#include "src/ocp/agents.hpp"
#include "src/ocp/monitor.hpp"
#include "src/sim/kernel.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl {
namespace {

ocp::Transaction read_txn(std::uint64_t addr) {
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = addr;
  txn.burst_len = 1;
  return txn;
}

// ---------------------------------------------------------------------
// Hazard 1: monitor observing skipped modules.
// ---------------------------------------------------------------------

struct MonitorCounts {
  std::uint64_t req_beats = 0;
  std::uint64_t resp_beats = 0;
  std::uint64_t transactions = 0;
  bool clean = false;
  bool slept_between = false;  ///< time-leap bench reached awake_count == 0
};

/// Runs six spaced transactions through a master/slave pair with a
/// monitor snooping the socket. The idle gaps put the whole bench to
/// sleep between transactions under the time-leap kernel, so every beat
/// the monitor sees after the first gap arrives via its wire watches.
MonitorCounts run_monitored(sim::Scheduler scheduler) {
  sim::Kernel kernel(scheduler);
  const ocp::OcpWires wires = ocp::OcpWires::make(kernel);
  ocp::MasterCore::Config mc;
  mc.req_credits = ocp::SlaveCore::Config{}.req_fifo_depth;
  ocp::MasterCore master("master", wires, mc);
  ocp::SlaveCore slave("slave", wires, {});
  ocp::Monitor monitor("monitor", wires);
  kernel.add_module(master);
  kernel.add_module(slave);
  kernel.add_module(monitor);

  MonitorCounts out;
  for (int k = 0; k < 6; ++k) {
    ocp::Transaction txn;
    txn.cmd = k % 2 == 0 ? ocp::Cmd::kRead : ocp::Cmd::kWrite;
    txn.burst_len = 1 + static_cast<std::uint32_t>(k % 3);
    txn.addr = 0x80 * k;
    if (txn.cmd != ocp::Cmd::kRead) txn.data.assign(txn.burst_len, 0xA0 + k);
    master.push_transaction(txn);
    kernel.run_until([&] { return master.quiescent(); }, 5000);
    kernel.run(20);  // idle gap: everything should fall asleep
    if (kernel.awake_count() == 0) out.slept_between = true;
  }
  out.req_beats = monitor.req_beats();
  out.resp_beats = monitor.resp_beats();
  out.transactions = monitor.transactions();
  out.clean = monitor.clean();
  return out;
}

TEST(WakeHazard, MonitorOnSleepingBenchSeesEveryBeat) {
  const MonitorCounts full = run_monitored(sim::Scheduler::kFull);
  const MonitorCounts leap = run_monitored(sim::Scheduler::kTimeLeap);

  // The scenario is only a regression test if the time-leap bench really
  // slept between transactions — otherwise the watches were never the
  // monitor's only wake source.
  EXPECT_TRUE(leap.slept_between);
  EXPECT_TRUE(full.clean);
  EXPECT_TRUE(leap.clean);
  EXPECT_EQ(leap.transactions, 6u);
  EXPECT_EQ(leap.req_beats, full.req_beats);
  EXPECT_EQ(leap.resp_beats, full.resp_beats);
  EXPECT_EQ(leap.transactions, full.transactions);
}

// ---------------------------------------------------------------------
// Hazard 2: push into a drained network.
// ---------------------------------------------------------------------

TEST(WakeHazard, PushIntoDrainedNetworkCompletesInLockstep) {
  // Drain both twins to a dead stop, then inject the same transaction
  // into each. The time-leap twin must serve it on the same cycles as the
  // full twin — push_transaction's wake() arms the *current* step, so
  // an injection between steps is never served a cycle late.
  auto build = [](sim::Scheduler scheduler) {
    noc::NetworkConfig cfg;
    cfg.routing = topology::RoutingAlgorithm::kXY;
    cfg.target_window = 1 << 12;
    cfg.scheduler = scheduler;
    return cfg;
  };
  noc::Network full(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
                    build(sim::Scheduler::kFull));
  noc::Network leap(topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)),
                     build(sim::Scheduler::kTimeLeap));

  full.step(40);
  leap.step(40);
  ASSERT_EQ(leap.kernel().awake_count(), 0u)
      << "reset-state network failed to drain to a dead stop";

  full.master(0).push_transaction(read_txn(full.target_base(2) + 0x20));
  leap.master(0).push_transaction(read_txn(leap.target_base(2) + 0x20));
  for (std::size_t c = 0; c < 3000; ++c) {
    if (full.quiescent() && leap.quiescent()) break;
    full.step();
    leap.step();
    ASSERT_EQ(full.kernel().digest(), leap.kernel().digest())
        << "post-push divergence at cycle " << c;
  }
  ASSERT_TRUE(full.quiescent());
  ASSERT_TRUE(leap.quiescent());
  ASSERT_EQ(full.master(0).completed().size(), 1u);
  ASSERT_EQ(leap.master(0).completed().size(), 1u);
}

// ---------------------------------------------------------------------
// Hazard 3: credit sender at zero credits.
// ---------------------------------------------------------------------

TEST(WakeHazard, StarvedCreditSenderKeepsCountingStalls) {
  // Saturate a small credit-flow mesh so senders park at zero credits.
  // Their owners may sleep there, but each starved cycle still owes a
  // credit_stalls_ increment, and a sender that did not credit its slept
  // cycles would undercount (the differential digests would still match
  // — only the counters drift — which is why this needs its own
  // regression). A 3x2 mesh: on 2x2 with this traffic no owner ever
  // sleeps while starved, and the test passed with the catch-up removed.
  auto run = [](sim::Scheduler scheduler) {
    noc::NetworkConfig cfg;
    cfg.routing = topology::RoutingAlgorithm::kXY;
    cfg.target_window = 1 << 12;
    cfg.flow = link::FlowControl::kCredit;
    cfg.output_fifo_depth = 2;
    cfg.scheduler = scheduler;
    noc::Network net(
        topology::make_mesh(3, 2, topology::NiPlan::uniform(6, 1, 1)), cfg);
    traffic::TrafficConfig tcfg;
    tcfg.injection_rate = 0.5;
    tcfg.burstiness = 0.6;
    tcfg.seed = 31;
    traffic::TrafficDriver driver(net, tcfg);
    driver.run(400);
    net.run_until_quiescent(60000);
    EXPECT_TRUE(net.quiescent());
    return net.total_credit_stalls();
  };
  const std::uint64_t full = run(sim::Scheduler::kFull);
  const std::uint64_t leap = run(sim::Scheduler::kTimeLeap);
  EXPECT_GT(full, 0u) << "scenario never starved a sender (vacuous test)";
  EXPECT_EQ(leap, full);
}

}  // namespace
}  // namespace xpl
