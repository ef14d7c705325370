// Differential kernel-equivalence suite.
//
// The time-leap scheduler must be indistinguishable from the full
// reference on every observable. These tests drive the
// differential harness (tests/support/differential.hpp) over randomized
// topologies × traffic × flow control × lane counts — per-cycle and
// chunked for the time-leap twin, partitioned across {2,4} partitions ×
// {2,4} threads — and additionally pin campaign CSV/JSON exports and
// recorded-trace bytes across the schedulers. Failures shrink to a
// minimal reproducing scenario and print the first divergent cycle plus
// the modules whose state differs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/common/rng.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/trace.hpp"
#include "tests/support/differential.hpp"

namespace xpl {
namespace {

using testsupport::DiffScenario;
using testsupport::run_differential_shrunk;
using testsupport::run_differential_timeleap;
using testsupport::run_differential_timeleap_partitioned;
using testsupport::run_differential_timeleap_shrunk;

/// Draws one random-but-valid scenario. Every combination is kept
/// deadlock-free by construction: minimal routing on rings/tori only
/// with the dateline lanes (vcs >= 2) the checker demands.
DiffScenario random_scenario(std::uint64_t seed) {
  Rng rng(seed);
  DiffScenario s;
  switch (rng.next_below(6)) {
    case 0:
      s.topology = "mesh";
      s.width = 2 + rng.next_below(2);   // 2..3
      s.height = 2 + rng.next_below(2);  // 2..3
      s.routing = topology::RoutingAlgorithm::kXY;
      s.vcs = 1 + rng.next_below(2);
      break;
    case 1:
      s.topology = "mesh";
      s.width = 2 + rng.next_below(2);
      s.height = 2;
      s.routing = topology::RoutingAlgorithm::kUpDown;
      s.vcs = 1 + rng.next_below(2);
      break;
    case 2:
      s.topology = "ring";
      s.width = 4 + rng.next_below(3);  // 4..6
      s.routing = topology::RoutingAlgorithm::kShortestPath;
      s.vcs = 2 + 2 * rng.next_below(2);  // 2 or 4 (dateline)
      break;
    case 3:
      s.topology = "torus";
      s.width = 3;
      s.height = 3;
      s.routing = topology::RoutingAlgorithm::kShortestPath;
      s.vcs = 2;
      break;
    case 4:
      s.topology = "star";
      s.width = 3 + rng.next_below(4);  // 3..6 leaves
      s.routing = topology::RoutingAlgorithm::kUpDown;
      s.vcs = 1 + rng.next_below(2);
      break;
    default:
      s.topology = "spidergon";
      s.width = 6;
      s.routing = topology::RoutingAlgorithm::kUpDown;
      s.vcs = 1 + rng.next_below(2);
      break;
  }
  if (rng.next_below(3) == 0) {
    s.flow = link::FlowControl::kCredit;
    s.bit_error_rate = 0.0;
  } else {
    s.flow = link::FlowControl::kAckNack;
    s.bit_error_rate = rng.next_below(2) == 0 ? 0.0 : 2e-4;
  }
  const double rates[] = {0.01, 0.05, 0.1, 0.2, 0.3};
  s.injection_rate = rates[rng.next_below(5)];
  const double bursts[] = {0.0, 0.3, 0.6};
  s.burstiness = bursts[rng.next_below(3)];
  s.cycles = 300 + rng.next_below(301);  // 300..600
  s.net_seed = rng.next_u64();
  s.traffic_seed = rng.next_u64();
  return s;
}

/// The randomized per-cycle sweep: >= 200 seeds by default. XPL_EQUIV_TRIALS
/// overrides the count (the CI kernel-equiv job raises it; local
/// debugging can lower it).
TEST(KernelEquiv, RandomizedScenariosAreBitExact) {
  std::size_t trials = 200;
  if (const char* env = std::getenv("XPL_EQUIV_TRIALS")) {
    trials = static_cast<std::size_t>(std::atoll(env));
  }
  for (std::size_t t = 0; t < trials; ++t) {
    const DiffScenario scenario = random_scenario(0xD1FF0000 + t);
    const auto result = run_differential_shrunk(scenario);
    ASSERT_TRUE(result.ok) << "trial " << t << ": " << result.detail;
  }
}

/// The same randomized sweep at both granularities: >= 200 fresh seeds,
/// each proven per-cycle (leaps digest-checked inside the leapt region)
/// and chunked (injector + multi-cycle leaps).
TEST(KernelEquiv, TimeLeapRandomizedScenariosAreBitExact) {
  std::size_t trials = 200;
  if (const char* env = std::getenv("XPL_EQUIV_TRIALS")) {
    trials = static_cast<std::size_t>(std::atoll(env));
  }
  for (std::size_t t = 0; t < trials; ++t) {
    const DiffScenario scenario = random_scenario(0x7EA90000 + t);
    const auto result = run_differential_timeleap_shrunk(scenario);
    ASSERT_TRUE(result.ok) << "trial " << t << ": " << result.detail;
  }
}

/// Partitioned time-leap twins across the full {2,4} partitions ×
/// {2,4} threads matrix. Low rates stretch idle gaps across many epoch
/// barriers (leap truncation); the moderate-rate credit scenario mixes
/// leaping with real backpressure across the cuts.
TEST(KernelEquiv, TimeLeapPartitionedMatrixIsBitExact) {
  DiffScenario scenarios[3];
  scenarios[0].topology = "mesh";  // near-silent: leaps dominate
  scenarios[0].width = 4;
  scenarios[0].height = 4;
  scenarios[0].injection_rate = 0.002;
  scenarios[0].cycles = 600;
  scenarios[1].topology = "torus";  // wrap cuts + dateline lanes
  scenarios[1].width = 4;
  scenarios[1].height = 4;
  scenarios[1].vcs = 2;
  scenarios[1].routing = topology::RoutingAlgorithm::kShortestPath;
  scenarios[1].injection_rate = 0.01;
  scenarios[1].cycles = 400;
  scenarios[2].topology = "mesh";  // credit stalls across the cut
  scenarios[2].width = 4;
  scenarios[2].height = 3;
  scenarios[2].flow = link::FlowControl::kCredit;
  scenarios[2].injection_rate = 0.05;
  scenarios[2].burstiness = 0.5;
  scenarios[2].cycles = 400;
  const std::size_t partition_counts[] = {2, 4};
  const std::size_t thread_counts[] = {2, 4};
  for (const DiffScenario& scenario : scenarios) {
    for (const std::size_t p : partition_counts) {
      for (const std::size_t t : thread_counts) {
        const auto result =
            run_differential_timeleap_partitioned(scenario, p, t);
        ASSERT_TRUE(result.ok)
            << "p=" << p << " t=" << t << ": " << result.detail;
      }
    }
  }
}

/// Deterministic pins for the corners the random draw can undersample.
TEST(KernelEquiv, CornerScenariosAreBitExact) {
  DiffScenario corners[6];
  corners[0].topology = "mesh";  // the golden campaign's smallest point
  corners[1] = corners[0];
  corners[1].injection_rate = 0.3;  // saturation
  corners[1].cycles = 600;
  corners[2].topology = "ring";
  corners[2].width = 6;
  corners[2].routing = topology::RoutingAlgorithm::kShortestPath;
  corners[2].vcs = 2;
  corners[3].topology = "mesh";
  corners[3].flow = link::FlowControl::kCredit;
  corners[3].injection_rate = 0.25;  // exercises credit_stalls
  corners[4].topology = "mesh";
  corners[4].bit_error_rate = 1e-3;  // heavy corruption + retransmit
  corners[4].cycles = 500;
  corners[5].topology = "mesh";
  corners[5].injection_rate = 0.002;  // near-silent: gating dominates
  corners[5].cycles = 600;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto result = run_differential_timeleap(corners[i]);
    ASSERT_TRUE(result.ok) << "corner " << i << ": " << result.detail;
  }
}

/// Campaign-level equality: the same sweep spec with `scheduler full`
/// vs the default must export byte-identical CSV and JSON.
TEST(KernelEquiv, CampaignExportsAreSchedulerInvariant) {
  const char* kSpec =
      "sweep equiv\n"
      "seed 11\n"
      "cycles 800\n"
      "topology mesh ring\n"
      "width 3\n"
      "height 2\n"
      "flow ack_nack credit\n"
      "injection_rate 0.02 0.15\n";
  sweep::SweepSpec full_spec = sweep::parse_sweep(kSpec);
  full_spec.scheduler = "full";
  const sweep::SweepSpec leap_spec = sweep::parse_sweep(kSpec);
  ASSERT_EQ(leap_spec.point(0).net.scheduler, sim::Scheduler::kTimeLeap);
  const auto full_table = sweep::SweepRunner(1).run(full_spec);
  const auto leap_table = sweep::SweepRunner(1).run(leap_spec);
  EXPECT_EQ(full_table.to_csv(), leap_table.to_csv());
  EXPECT_EQ(full_table.to_json(), leap_table.to_json());
}

/// Recorded traces must be byte-identical across schedulers: the
/// recorder taps master push_transaction, whose content and timing are
/// driver-determined, and completion draining must not differ.
TEST(KernelEquiv, RecordedTraceBytesAreSchedulerInvariant) {
  auto record = [](sim::Scheduler scheduler) {
    noc::NetworkConfig cfg;
    cfg.routing = topology::RoutingAlgorithm::kXY;
    cfg.target_window = 1 << 12;
    cfg.scheduler = scheduler;
    noc::Network net(
        topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);
    traffic::TrafficConfig tcfg;
    tcfg.injection_rate = 0.08;
    tcfg.burstiness = 0.4;
    tcfg.seed = 99;
    workload::TraceRecorder recorder(net, "equiv");
    traffic::TrafficDriver driver(net, tcfg);
    driver.run(600);
    net.run_until_quiescent(20000);
    return workload::write_trace(recorder.trace());
  };
  const std::string full = record(sim::Scheduler::kFull);
  const std::string leap = record(sim::Scheduler::kTimeLeap);
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(full, leap);
}

/// Sanity that the optimization is real: at low load the time-leap
/// kernel must actually skip most modules most cycles (otherwise these
/// equivalence proofs are vacuous).
TEST(KernelEquiv, TimeLeapKernelActuallySkipsIdleModules) {
  DiffScenario s;
  s.injection_rate = 0.002;
  s.cycles = 400;
  noc::Network net(s.build_topology(),
                   s.net_config(sim::Scheduler::kTimeLeap));
  traffic::TrafficDriver driver(net, s.traffic_config());
  std::uint64_t awake_sum = 0;
  std::uint64_t min_awake = net.kernel().module_count();
  for (std::size_t c = 0; c < s.cycles; ++c) {
    driver.step();
    net.step();
    awake_sum += net.kernel().awake_count();
    min_awake = std::min<std::uint64_t>(min_awake,
                                        net.kernel().awake_count());
  }
  const std::uint64_t modules = net.kernel().module_count();
  // Some cycle must have put the majority of the network to sleep.
  EXPECT_LT(min_awake, modules / 2)
      << "gating never idled half the network at near-zero load";
  EXPECT_LT(awake_sum, s.cycles * modules)
      << "gating skipped nothing over the whole run";
}

}  // namespace
}  // namespace xpl
