// Partitioned parallel simulation (PR 8): bit-exactness at any
// partition and thread count.
//
// The partitioned kernel splits one Network across conservative
// partitions synchronized at link-latency boundaries (DESIGN.md §10).
// The contract mirrors the time-leap kernel's: partitioning is a
// pure throughput optimization — per-epoch signal digests, drain
// behaviour, statistics, campaign exports and recorded traces must be
// byte-identical to the unpartitioned kernel for every (partitions,
// threads) setting. These tests prove it with the differential harness
// plus direct checks of the partitioner, the lookahead derivation, the
// release-gated master, and the uniform link-stats view.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/link/flow.hpp"
#include "src/noc/network.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/generators.hpp"
#include "src/topology/partition.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/trace.hpp"
#include "tests/support/differential.hpp"

namespace xpl {
namespace {

using testsupport::DiffResult;
using testsupport::DiffScenario;
using testsupport::run_lockstep_partitioned;

/// Runs `scenario` unpartitioned vs partitioned with the given split and
/// asserts lockstep digest/stats equality.
void expect_invariant(const DiffScenario& scenario, std::size_t partitions,
                      std::size_t threads) {
  noc::Network ref(scenario.build_topology(),
                   scenario.net_config(sim::Scheduler::kFull));
  noc::Network part(
      scenario.build_topology(),
      scenario.net_config(sim::Scheduler::kTimeLeap, partitions, threads));
  traffic::TrafficDriver ref_driver(ref, scenario.traffic_config());
  traffic::TrafficDriver part_driver(part, scenario.traffic_config());
  const DiffResult result = run_lockstep_partitioned(
      ref, part, ref_driver, part_driver, scenario.cycles,
      scenario.drain_cycles,
      scenario.to_string() + " partitions=" + std::to_string(partitions) +
          " threads=" + std::to_string(threads));
  EXPECT_TRUE(result.ok) << result.detail;
}

/// The corner scenarios: every flow-control/vcs/error/burstiness regime
/// the uncut link distinguishes, on all three partitionable topologies.
std::vector<DiffScenario> corner_scenarios() {
  std::vector<DiffScenario> scenarios;
  {
    DiffScenario s;  // plain mesh, ack_nack, memoryless
    s.topology = "mesh";
    s.width = 4;
    s.height = 4;
    s.cycles = 300;
    s.injection_rate = 0.08;
    scenarios.push_back(s);
  }
  {
    DiffScenario s;  // credit flow + multi-lane + bursty injection
    s.topology = "mesh";
    s.width = 4;
    s.height = 3;
    s.flow = link::FlowControl::kCredit;
    s.vcs = 2;
    s.burstiness = 0.5;
    s.cycles = 300;
    s.injection_rate = 0.1;
    s.net_seed = 3;
    s.traffic_seed = 5;
    scenarios.push_back(s);
  }
  {
    DiffScenario s;  // noisy links: retransmissions cross the cut
    s.topology = "mesh";
    s.width = 3;
    s.height = 3;
    s.bit_error_rate = 2e-3;
    s.cycles = 250;
    s.injection_rate = 0.06;
    s.net_seed = 11;
    scenarios.push_back(s);
  }
  {
    DiffScenario s;  // torus: wrap links cut, dateline VC routing
    s.topology = "torus";
    s.width = 4;
    s.height = 4;
    s.vcs = 2;
    s.routing = topology::RoutingAlgorithm::kShortestPath;
    s.cycles = 250;
    s.injection_rate = 0.05;
    s.net_seed = 17;
    scenarios.push_back(s);
  }
  {
    DiffScenario s;  // concentrated mesh: multiple NIs per switch
    s.topology = "cmesh";
    s.width = 4;
    s.height = 2;
    s.concentration = 2;
    s.cycles = 250;
    s.injection_rate = 0.05;
    s.net_seed = 23;
    scenarios.push_back(s);
  }
  return scenarios;
}

TEST(PartitionInvariance, CornersAcrossPartitionAndThreadCounts) {
  // The full matrix every scenario must survive. threads > partitions is
  // clamped by the kernel, so {1,2,4} threads on 2 partitions also
  // covers the clamp path.
  const std::size_t partition_counts[] = {2, 4};
  const std::size_t thread_counts[] = {1, 2, 4};
  for (const DiffScenario& scenario : corner_scenarios()) {
    for (const std::size_t p : partition_counts) {
      for (const std::size_t t : thread_counts) {
        expect_invariant(scenario, p, t);
      }
    }
  }
}

TEST(PartitionInvariance, FullSchedulerPartitionsToo) {
  // Partitioning composes with the full reference too: its partitioned
  // twin ticks every module of every partition every cycle.
  DiffScenario s;
  s.topology = "mesh";
  s.width = 4;
  s.height = 4;
  s.cycles = 250;
  s.injection_rate = 0.08;
  noc::Network ref(s.build_topology(), s.net_config(sim::Scheduler::kFull));
  noc::Network part(s.build_topology(),
                    s.net_config(sim::Scheduler::kFull, 4, 2));
  traffic::TrafficDriver ref_driver(ref, s.traffic_config());
  traffic::TrafficDriver part_driver(part, s.traffic_config());
  const DiffResult result =
      run_lockstep_partitioned(ref, part, ref_driver, part_driver, s.cycles,
                               s.drain_cycles, s.to_string() + " [full]");
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(PartitionInvariance, EpochMachineryActuallyEngaged) {
  // Guards against the matrix above passing vacuously: the partitioned
  // twin must really cut links, run multi-cycle epochs, and move flits
  // through mailboxes.
  DiffScenario s;
  s.topology = "cmesh";  // default cmesh links carry 1 relay stage
  s.width = 4;
  s.height = 2;
  s.concentration = 2;
  noc::Network net(s.build_topology(),
                   s.net_config(sim::Scheduler::kTimeLeap, 4, 2));
  ASSERT_TRUE(net.kernel().partitioned());
  EXPECT_EQ(net.kernel().partition_count(), 4u);
  EXPECT_EQ(net.kernel().thread_count(), 2u);
  // 1 relay stage on every cut link -> the auto lookahead is 2 cycles.
  EXPECT_EQ(net.kernel().lookahead(), 2u);
  EXPECT_FALSE(net.cut_links().empty());

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.1;
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(200);
  net.run_until_quiescent(20000);
  EXPECT_GT(net.kernel().epochs(), 0u);
  EXPECT_GT(net.kernel().cut_flits(), 0u);
}

TEST(PartitionInvariance, LookaheadRespectsConfigCap) {
  DiffScenario s;
  s.topology = "cmesh";
  s.width = 4;
  s.height = 2;
  s.concentration = 2;
  noc::NetworkConfig cfg = s.net_config(sim::Scheduler::kTimeLeap, 2, 1);
  cfg.lookahead = 1;  // force single-cycle epochs despite staged cuts
  noc::Network net(s.build_topology(), cfg);
  EXPECT_EQ(net.kernel().lookahead(), 1u);

  // Zero-stage cuts bound the window at 1 cycle regardless of config.
  noc::NetworkConfig cfg2 = s.net_config(sim::Scheduler::kTimeLeap, 2, 1);
  cfg2.lookahead = 8;
  noc::Network mesh_net(
      topology::make_mesh(4, 4, topology::NiPlan::uniform(16, 1, 1)), cfg2);
  EXPECT_EQ(mesh_net.kernel().lookahead(), 1u);
}

TEST(PartitionInvariance, LinkStatsViewIsPartitionInvariant) {
  // The uniform link view (pipelined + cut, creation order) keeps the
  // utilization denominator and the per-link load rows identical.
  DiffScenario s;
  s.topology = "mesh";
  s.width = 4;
  s.height = 4;
  s.cycles = 200;
  s.injection_rate = 0.08;
  noc::Network ref(s.build_topology(),
                   s.net_config(sim::Scheduler::kFull));
  noc::Network part(s.build_topology(),
                    s.net_config(sim::Scheduler::kTimeLeap, 4, 2));
  ASSERT_EQ(ref.num_links(), part.num_links());

  traffic::TrafficDriver ref_driver(ref, s.traffic_config());
  traffic::TrafficDriver part_driver(part, s.traffic_config());
  ref_driver.run(s.cycles);
  part_driver.run(s.cycles);
  ref.run_until_quiescent(20000);
  part.run_until_quiescent(20000);

  const auto ref_stats = ref.link_stats();
  const auto part_stats = part.link_stats();
  ASSERT_EQ(ref_stats.size(), part_stats.size());
  for (std::size_t i = 0; i < ref_stats.size(); ++i) {
    EXPECT_EQ(ref_stats[i].name, part_stats[i].name) << "link " << i;
    EXPECT_EQ(ref_stats[i].flits_carried, part_stats[i].flits_carried)
        << "link " << i << " (" << ref_stats[i].name << ")";
    EXPECT_EQ(ref_stats[i].flits_corrupted, part_stats[i].flits_corrupted)
        << "link " << i;
  }
  const auto ref_loads = traffic::collect_link_loads(ref, s.cycles);
  const auto part_loads = traffic::collect_link_loads(part, s.cycles);
  ASSERT_EQ(ref_loads.size(), part_loads.size());
  for (std::size_t i = 0; i < ref_loads.size(); ++i) {
    EXPECT_EQ(ref_loads[i].name, part_loads[i].name);
    EXPECT_EQ(ref_loads[i].flits, part_loads[i].flits);
  }
}

TEST(PartitionInvariance, RecordedTraceIsByteIdentical) {
  // A trace recorded during a partitioned run (pre-rolled injections
  // carry explicit release cycles) serializes to the same bytes as one
  // recorded unpartitioned.
  auto record = [](std::size_t partitions, std::size_t threads) {
    DiffScenario s;
    s.topology = "mesh";
    s.width = 3;
    s.height = 3;
    noc::Network net(
        s.build_topology(),
        s.net_config(sim::Scheduler::kTimeLeap, partitions, threads));
    traffic::TrafficConfig tcfg;
    tcfg.injection_rate = 0.08;
    tcfg.burstiness = 0.4;
    tcfg.seed = 99;
    workload::TraceRecorder recorder(net, "part");
    traffic::TrafficDriver driver(net, tcfg);
    driver.run(400);
    net.run_until_quiescent(20000);
    return workload::write_trace(recorder.trace());
  };
  const std::string base = record(1, 1);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(record(2, 2), base);
  EXPECT_EQ(record(4, 4), base);
}

/// Drives `source` (a TrafficDriver or a TraceDriver) for 260 cycles,
/// in one run() or in the mix step() x7, run(50), step() x3, run(200),
/// then drains.
template <typename Source>
void drive_260(Source& source, noc::Network& net, bool mixed) {
  const auto steps = [&](int n) {
    for (int i = 0; i < n; ++i) {
      source.step();
      net.step();
    }
  };
  if (mixed) {
    steps(7);
    source.run(50);
    steps(3);
    source.run(200);
  } else {
    source.run(260);
  }
  net.run_until_quiescent(20000);
}

TEST(PartitionInvariance, TraceReplayIsSchedulerAndPartitionInvariant) {
  // Both traffic sources run on one injection engine with two paths: the
  // time-leap injector and the per-epoch pre-roll (kFull and partitioned
  // kernels). Re-running the synthetic source of a recorded bursty trace,
  // and replaying the trace, must re-record the same bytes and report
  // the same RunStats on every kernel and under a step()/run() mix.
  DiffScenario s;
  s.topology = "cmesh";  // 1 relay stage per link: 2-cycle epochs
  s.width = 4;
  s.height = 2;
  s.concentration = 2;
  s.injection_rate = 0.03;
  s.burstiness = 0.6;
  s.traffic_seed = 13;
  const auto key = [](const traffic::RunStats& r) {
    return std::make_tuple(r.transactions, r.latency.count, r.latency.mean,
                           r.latency.min, r.latency.max, r.latency.p50,
                           r.latency.p95, r.link_flits, r.retransmissions,
                           r.credit_stalls, r.avg_link_utilization);
  };

  workload::Trace trace;
  std::string base_bytes;
  traffic::RunStats base_stats;
  {
    noc::Network net(s.build_topology(),
                     s.net_config(sim::Scheduler::kTimeLeap));
    workload::TraceRecorder recorder(net, "bursty");
    traffic::TrafficDriver driver(net, s.traffic_config());
    drive_260(driver, net, /*mixed=*/false);
    trace = recorder.trace();
    base_bytes = workload::write_trace(trace);
    base_stats = traffic::collect_run(net, 260);
  }
  // Not vacuous: traffic flowed, with silent stretches to leap.
  ASSERT_GT(trace.entries.size(), 10u);
  bool gap = false;
  for (std::size_t i = 1; i < trace.entries.size(); ++i) {
    gap = gap || trace.entries[i].cycle > trace.entries[i - 1].cycle + 5;
  }
  ASSERT_TRUE(gap);

  struct Setup {
    sim::Scheduler scheduler;
    std::size_t partitions;
  };
  for (const Setup k : {Setup{sim::Scheduler::kFull, 1},
                        Setup{sim::Scheduler::kTimeLeap, 1},
                        Setup{sim::Scheduler::kTimeLeap, 2}}) {
    for (const bool replay : {false, true}) {
      for (const bool mixed : {false, true}) {
        noc::Network net(s.build_topology(),
                         s.net_config(k.scheduler, k.partitions,
                                      k.partitions));
        ASSERT_EQ(net.kernel().partitioned(), k.partitions > 1);
        workload::TraceRecorder recorder(net, "bursty");
        if (replay) {
          workload::TraceDriver driver(net, trace);
          drive_260(driver, net, mixed);
        } else {
          traffic::TrafficDriver driver(net, s.traffic_config());
          drive_260(driver, net, mixed);
        }
        const std::string what =
            std::string(sim::scheduler_name(k.scheduler)) + " partitions=" +
            std::to_string(k.partitions) + (replay ? " replay" : " driver") +
            (mixed ? " mixed" : " run");
        EXPECT_EQ(workload::write_trace(recorder.trace()), base_bytes)
            << what;
        const traffic::RunStats stats = traffic::collect_run(net, 260);
        EXPECT_TRUE(key(stats) == key(base_stats))
            << what << ": " << stats.to_string() << " vs "
            << base_stats.to_string();
      }
    }
  }
}

TEST(PartitionInvariance, CampaignExportsAreByteIdentical) {
  // The sweep engine's `threads`/`partitions` scalars must never leak
  // into exports: CSV and JSON bytes are identical at every setting.
  const char* kSpec =
      "sweep part_scan\n"
      "seed 7\n"
      "cycles 300\n"
      "topology mesh cmesh\n"
      "width 3\n"
      "height 3\n"
      "concentration 2\n"
      "injection_rate 0.03 0.08\n";
  sweep::SweepSpec spec = sweep::parse_sweep(kSpec);
  const sweep::ResultTable base = sweep::SweepRunner(1).run(spec);
  const std::string base_csv = base.to_csv();
  const std::string base_json = base.to_json();
  for (const std::size_t p : {2u, 4u}) {
    for (const std::size_t t : {1u, 2u, 4u}) {
      spec.partitions = p;
      spec.threads = t;
      const sweep::ResultTable table = sweep::SweepRunner(1).run(spec);
      EXPECT_EQ(table.to_csv(), base_csv)
          << "partitions=" << p << " threads=" << t;
      EXPECT_EQ(table.to_json(), base_json)
          << "partitions=" << p << " threads=" << t;
    }
  }
}

TEST(Partitioner, StripesAreBalancedContiguousAndComplete) {
  const auto topo =
      topology::make_mesh(8, 4, topology::NiPlan::uniform(32, 1, 1));
  const auto assignment = topology::partition_switches(topo, 4);
  ASSERT_EQ(assignment.size(), 32u);
  // Stripes along x (the longer axis): partition = f(x) only, monotone,
  // and all four partitions non-empty.
  std::set<std::uint32_t> seen;
  for (std::uint32_t s = 0; s < 32; ++s) {
    const auto& node = topo.switch_node(s);
    EXPECT_EQ(assignment[s], static_cast<std::uint32_t>(node.x * 4 / 8));
    seen.insert(assignment[s]);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Partitioner, BfsFallbackCoversCoordinatelessTopologies) {
  const auto topo =
      topology::make_star(6, topology::NiPlan::uniform(7, 1, 1));
  const auto assignment = topology::partition_switches(topo, 3);
  ASSERT_EQ(assignment.size(), 7u);
  std::set<std::uint32_t> seen(assignment.begin(), assignment.end());
  EXPECT_EQ(seen.size(), 3u);  // every partition non-empty
  for (const auto p : assignment) EXPECT_LT(p, 3u);
  // Deterministic: same input, same assignment.
  EXPECT_EQ(topology::partition_switches(topo, 3), assignment);
}

TEST(ReleaseGate, MasterHoldsPreRolledTransactionsUntilRelease) {
  sim::Kernel kernel;
  const auto wires = ocp::OcpWires::make(kernel);
  ocp::MasterCore master("m", wires, {});
  ocp::SlaveCore slave("s", wires, {});
  kernel.add_module(master);
  kernel.add_module(slave);

  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = 0;
  master.push_transaction_at(txn, 3);
  kernel.run(3);  // cycles 0,1,2: released at 3, must not issue yet
  EXPECT_EQ(master.issued_count(), 0u);
  kernel.run(20);
  EXPECT_EQ(master.issued_count(), 1u);
  ASSERT_EQ(master.completed().size(), 1u);
  // Issued exactly at its release cycle, as a per-cycle push would.
  EXPECT_EQ(master.completed()[0].issue_cycle, 3u);
}

}  // namespace
}  // namespace xpl
