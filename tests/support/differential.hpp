// Differential kernel-equivalence harness.
//
// The time-leap scheduler (sim::Scheduler::kTimeLeap) is a pure
// optimization: it must be *bit-exact* against the full reference
// (sim::Scheduler::kFull, which ticks every module every cycle) on every
// observable — per-cycle signal values, end-of-run statistics, campaign
// exports, recorded traces. This header is the proof engine: it builds
// two identically-configured networks, one per scheduler, drives them in
// lockstep with twin traffic generators, and compares the kernels'
// signal digests every cycle. A divergence is reported with the first
// divergent cycle and the modules whose state differs, and scenarios
// shrink toward a minimal reproduction before reporting.
//
// The time-leap twin is proven at two granularities. Network::step()
// routes through Kernel::run(1), so a per-cycle-driven kTimeLeap
// network still takes the leap decision every cycle — a skipped
// (frozen) cycle is digest-compared against the reference *inside* the
// leapt region, not just at its ends. Chunked driving via
// traffic::TrafficDriver::run() then arms the driver's injector module
// and lets the kernel leap multi-cycle gaps wholesale, compared at the
// cycle counts where the two clocks realign.
//
// Used by tests/kernel_equiv_test.cpp (randomized sweep),
// tests/timeleap_test.cpp (leap corners), the fuzz suite, and the
// wake-hazard regression tests.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/link/flow.hpp"
#include "src/noc/network.hpp"
#include "src/sim/kernel.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::testsupport {

/// One randomized equivalence trial: everything needed to construct two
/// identical networks and their traffic, minus the scheduler choice.
struct DiffScenario {
  /// mesh | torus | ring | star | spidergon | cmesh
  std::string topology = "mesh";
  std::size_t width = 2;
  std::size_t height = 2;
  std::size_t concentration = 2;  ///< cmesh only: NIs per switch
  std::size_t vcs = 1;
  link::FlowControl flow = link::FlowControl::kAckNack;
  double bit_error_rate = 0.0;
  topology::RoutingAlgorithm routing = topology::RoutingAlgorithm::kXY;
  double injection_rate = 0.05;
  double burstiness = 0.0;
  std::size_t cycles = 400;        ///< driven cycles
  std::size_t drain_cycles = 6000; ///< extra lockstep cycles to drain
  std::uint64_t net_seed = 1;
  std::uint64_t traffic_seed = 1;

  topology::Topology build_topology() const {
    if (topology == "cmesh") {
      return topology::make_cmesh(width, height, concentration);
    }
    const std::size_t n = topology == "mesh" || topology == "torus"
                              ? width * height
                              : topology == "star" ? width + 1
                              : topology == "spidergon" ? width + (width % 2)
                                                        : width;
    const auto plan = topology::NiPlan::uniform(n, 1, 1);
    if (topology == "mesh") return topology::make_mesh(width, height, plan);
    if (topology == "torus") return topology::make_torus(width, height, plan);
    if (topology == "ring") return topology::make_ring(width, plan);
    if (topology == "star") return topology::make_star(width, plan);
    return topology::make_spidergon(width + (width % 2), plan);
  }

  noc::NetworkConfig net_config(sim::Scheduler scheduler,
                                std::size_t partitions = 1,
                                std::size_t sim_threads = 1) const {
    noc::NetworkConfig cfg;
    cfg.routing = routing;
    cfg.vcs = vcs;
    cfg.flow = flow;
    cfg.bit_error_rate = bit_error_rate;
    cfg.seed = net_seed;
    cfg.target_window = 1 << 12;
    cfg.scheduler = scheduler;
    cfg.partitions = partitions;
    cfg.sim_threads = sim_threads;
    return cfg;
  }

  traffic::TrafficConfig traffic_config() const {
    traffic::TrafficConfig cfg;
    cfg.injection_rate = injection_rate;
    cfg.burstiness = burstiness;
    cfg.seed = traffic_seed;
    return cfg;
  }

  /// Reproduction recipe, printed on failure.
  std::string to_string() const {
    std::ostringstream os;
    os << topology << " " << width << "x" << height;
    if (topology == "cmesh") os << " c" << concentration;
    os << " vcs=" << vcs
       << " flow=" << link::flow_control_name(flow)
       << " ber=" << bit_error_rate
       << " routing=" << topology::routing_name(routing)
       << " rate=" << injection_rate << " burst=" << burstiness
       << " cycles=" << cycles << " net_seed=" << net_seed
       << " traffic_seed=" << traffic_seed;
    return os.str();
  }
};

/// Outcome of one lockstep comparison.
struct DiffResult {
  bool ok = true;
  /// Cycle whose post-commit digest first differed (or the end-of-run
  /// stats comparison when the per-cycle digests agreed).
  std::uint64_t first_divergent_cycle = 0;
  std::string detail;  ///< human-readable attribution

  explicit operator bool() const { return ok; }
};

namespace detail {

/// Compares a handful of per-module observables and names the first
/// mismatch — digest divergence says *when*, this says *where*. The
/// labels default to the scheduler-equivalence pairing; the partition
/// harness passes "ref"/"part".
inline std::string attribute_divergence(noc::Network& full,
                                        noc::Network& leap,
                                        const char* label_a = "full",
                                        const char* label_b = "leap") {
  std::ostringstream os;
  for (std::size_t s = 0; s < full.num_switches(); ++s) {
    const std::string a = full.switch_at(s).debug_state();
    const std::string b = leap.switch_at(s).debug_state();
    if (a != b) {
      os << "\n  switch " << s << " " << label_a << ":  " << a
         << "\n  switch " << s << " " << label_b << ": " << b;
    }
  }
  for (std::size_t i = 0; i < full.num_initiators(); ++i) {
    if (full.master(i).issued_count() != leap.master(i).issued_count() ||
        full.master(i).completed().size() !=
            leap.master(i).completed().size()) {
      os << "\n  master " << i << ": issued "
         << full.master(i).issued_count() << "/"
         << leap.master(i).issued_count() << " completed "
         << full.master(i).completed().size() << "/"
         << leap.master(i).completed().size();
    }
  }
  for (std::size_t t = 0; t < full.num_targets(); ++t) {
    if (full.target_ni(t).packets_received() !=
        leap.target_ni(t).packets_received()) {
      os << "\n  target_ni " << t << ": packets_received "
         << full.target_ni(t).packets_received() << "/"
         << leap.target_ni(t).packets_received();
    }
  }
  os << "\n  awake(" << label_b << ") = " << leap.kernel().awake_count()
     << "/" << leap.kernel().module_count();
  return os.str();
}

}  // namespace detail

/// Lockstep comparator over caller-built twins: `full` and `leap` must
/// be identically constructed except for the scheduler, and the drivers
/// identically seeded. Drives both for `cycles`, then drains, comparing
/// the kernels' signal digests after every cycle and the end-of-run
/// statistics at the end. `describe` labels the failure report. This is
/// the reusable core: DiffScenario-based callers go through
/// run_differential below; suites with their own topology generators
/// (tests/fuzz_test.cpp) call this directly.
inline DiffResult run_lockstep(noc::Network& full, noc::Network& leap,
                               traffic::TrafficDriver& full_driver,
                               traffic::TrafficDriver& leap_driver,
                               std::size_t cycles, std::size_t drain_cycles,
                               const std::string& describe) {
  const char* label_a = "full";
  const char* label_b = "leap";
  DiffResult result;
  auto diverged = [&](std::uint64_t cycle, const char* phase) {
    result.ok = false;
    result.first_divergent_cycle = cycle;
    std::ostringstream os;
    os << "digest divergence at cycle " << cycle << " (" << phase
       << " phase)\n  scenario: " << describe
       << detail::attribute_divergence(full, leap, label_a, label_b);
    result.detail = os.str();
    return result;
  };

  for (std::size_t c = 0; c < cycles; ++c) {
    full_driver.step();
    leap_driver.step();
    full.step();
    leap.step();
    if (full.kernel().digest() != leap.kernel().digest()) {
      return diverged(full.kernel().cycle(), "driven");
    }
  }
  for (std::size_t c = 0; c < drain_cycles; ++c) {
    if (full.quiescent() && leap.quiescent()) break;
    full.step();
    leap.step();
    if (full.kernel().digest() != leap.kernel().digest()) {
      return diverged(full.kernel().cycle(), "drain");
    }
  }
  if (full.quiescent() != leap.quiescent()) {
    result.ok = false;
    result.first_divergent_cycle = full.kernel().cycle();
    result.detail = "drain divergence (" + std::string(label_a) + " " +
                    std::string(full.quiescent() ? "quiescent" : "stuck") +
                    ", " + std::string(label_b) + " " +
                    std::string(leap.quiescent() ? "quiescent" : "stuck") +
                    ")\n  scenario: " + describe +
                    detail::attribute_divergence(full, leap, label_a,
                                                 label_b);
    return result;
  }

  // Per-cycle digests agreed; the aggregate statistics must too.
  const auto fs = traffic::collect_run(full, cycles);
  const auto gs = traffic::collect_run(leap, cycles);
  std::ostringstream os;
  auto check = [&os, label_a, label_b](const char* what, auto a, auto b) {
    if (a != b) {
      os << "\n  " << what << ": " << label_a << "=" << a << " " << label_b
         << "=" << b;
    }
  };
  check("transactions", fs.transactions, gs.transactions);
  check("latency.mean", fs.latency.mean, gs.latency.mean);
  check("latency.p95", fs.latency.p95, gs.latency.p95);
  check("throughput", fs.throughput, gs.throughput);
  check("link_flits", fs.link_flits, gs.link_flits);
  check("retransmissions", fs.retransmissions, gs.retransmissions);
  check("credit_stalls", fs.credit_stalls, gs.credit_stalls);
  if (!os.str().empty()) {
    result.ok = false;
    result.first_divergent_cycle = full.kernel().cycle();
    result.detail = "stats divergence after identical digests (scenario: " +
                    describe + ")" + os.str();
  }
  return result;
}

/// Lockstep comparator for the partitioned kernel (PR 8): `ref` is the
/// unpartitioned reference, `part` a partitioned twin (any partition and
/// thread count). Digests are only comparable at epoch boundaries — the
/// partitioned kernel commits a whole conservative window per barrier —
/// so the driven phase advances both networks in chunks of `part`'s
/// lookahead and compares after each chunk; the drain then runs per
/// cycle (a 1-cycle epoch is always legal), exercising quiescence
/// detection at the same granularity run_lockstep uses. Signal creation
/// order is partition-invariant, so equal digests mean byte-identical
/// committed state, not merely "similar".
inline DiffResult run_lockstep_partitioned(
    noc::Network& ref, noc::Network& part,
    traffic::TrafficDriver& ref_driver, traffic::TrafficDriver& part_driver,
    std::size_t cycles, std::size_t drain_cycles,
    const std::string& describe) {
  DiffResult result;
  auto diverged = [&](std::uint64_t cycle, const char* phase) {
    result.ok = false;
    result.first_divergent_cycle = cycle;
    std::ostringstream os;
    os << "digest divergence at cycle " << cycle << " (" << phase
       << " phase)\n  scenario: " << describe
       << detail::attribute_divergence(ref, part, "ref", "part");
    result.detail = os.str();
    return result;
  };

  const std::size_t k =
      std::max<std::size_t>(1, part.kernel().lookahead());
  std::size_t done = 0;
  while (done < cycles) {
    const std::size_t n = std::min(k, cycles - done);
    ref_driver.run(n);
    part_driver.run(n);
    done += n;
    if (ref.kernel().digest() != part.kernel().digest()) {
      return diverged(ref.kernel().cycle(), "driven");
    }
  }
  for (std::size_t c = 0; c < drain_cycles; ++c) {
    if (ref.quiescent() && part.quiescent()) break;
    ref.step();
    part.step();
    if (ref.kernel().digest() != part.kernel().digest()) {
      return diverged(ref.kernel().cycle(), "drain");
    }
  }
  if (ref.quiescent() != part.quiescent()) {
    result.ok = false;
    result.first_divergent_cycle = ref.kernel().cycle();
    result.detail =
        "drain divergence (ref " +
        std::string(ref.quiescent() ? "quiescent" : "stuck") + ", part " +
        std::string(part.quiescent() ? "quiescent" : "stuck") +
        ")\n  scenario: " + describe +
        detail::attribute_divergence(ref, part, "ref", "part");
    return result;
  }

  const auto rs = traffic::collect_run(ref, cycles);
  const auto ps = traffic::collect_run(part, cycles);
  std::ostringstream os;
  auto check = [&os](const char* what, auto a, auto b) {
    if (a != b) os << "\n  " << what << ": ref=" << a << " part=" << b;
  };
  check("transactions", rs.transactions, ps.transactions);
  check("latency.mean", rs.latency.mean, ps.latency.mean);
  check("latency.p95", rs.latency.p95, ps.latency.p95);
  check("throughput", rs.throughput, ps.throughput);
  check("link_flits", rs.link_flits, ps.link_flits);
  check("retransmissions", rs.retransmissions, ps.retransmissions);
  check("credit_stalls", rs.credit_stalls, ps.credit_stalls);
  check("avg_link_utilization", rs.avg_link_utilization,
        ps.avg_link_utilization);
  if (!os.str().empty()) {
    result.ok = false;
    result.first_divergent_cycle = ref.kernel().cycle();
    result.detail = "stats divergence after identical digests (scenario: " +
                    describe + ")" + os.str();
  }
  return result;
}

/// Builds the full-reference and time-leap twins of `scenario`, drives
/// them in lockstep per cycle, and compares the kernels' signal digests
/// after every cycle (driven phase and drain phase alike), then the
/// end-of-run statistics. Because Network::step() is Kernel::run(1), the
/// twin's kernel takes the leap decision every cycle and skips (freezes)
/// each quiescent one — so the digest comparison runs *inside* leapt
/// regions: a frozen cycle must be byte-identical to the reference's
/// ticked one, which is exactly the "skipped ticks are observable
/// no-ops" obligation. Returns the first divergence, if any.
inline DiffResult run_differential(const DiffScenario& scenario) {
  noc::Network full(scenario.build_topology(),
                    scenario.net_config(sim::Scheduler::kFull));
  noc::Network leap(scenario.build_topology(),
                    scenario.net_config(sim::Scheduler::kTimeLeap));
  traffic::TrafficDriver full_driver(full, scenario.traffic_config());
  traffic::TrafficDriver leap_driver(leap, scenario.traffic_config());
  return run_lockstep(full, leap, full_driver, leap_driver,
                      scenario.cycles, scenario.drain_cycles,
                      scenario.to_string());
}

/// Time-leap differential at both leap granularities, full reference vs
/// kTimeLeap twin.
///
/// Leg 1 is run_differential: per-cycle driving, digests compared inside
/// leapt regions.
///
/// Leg 2 re-runs the scenario advancing the twin in mixed-width
/// driver.run() spans. That path registers the driver's injector module
/// (TrafficDriver does so only under an unpartitioned kTimeLeap
/// kernel), so multi-cycle calendar leaps, injector look-ahead, and
/// wake-at-leap-target all engage; digests compare wherever the two
/// clocks realign, and the drain advances both sides in fixed windows.
inline DiffResult run_differential_timeleap(const DiffScenario& scenario) {
  {
    DiffResult per_cycle = run_differential(scenario);
    if (!per_cycle.ok) {
      per_cycle.detail += "\n  [leap per-cycle]";
      return per_cycle;
    }
  }

  noc::Network ref(scenario.build_topology(),
                   scenario.net_config(sim::Scheduler::kFull));
  noc::Network leap(scenario.build_topology(),
                    scenario.net_config(sim::Scheduler::kTimeLeap));
  traffic::TrafficDriver ref_driver(ref, scenario.traffic_config());
  traffic::TrafficDriver leap_driver(leap, scenario.traffic_config());
  const std::string describe = scenario.to_string() + " [leap chunked]";

  DiffResult result;
  auto diverged = [&](std::uint64_t cycle, const char* phase) {
    result.ok = false;
    result.first_divergent_cycle = cycle;
    std::ostringstream os;
    os << "digest divergence at cycle " << cycle << " (" << phase
       << " phase)\n  scenario: " << describe
       << detail::attribute_divergence(ref, leap, "full", "leap");
    result.detail = os.str();
    return result;
  };

  // Mixed span widths: shorter than, comparable to, and much longer than
  // typical idle gaps, so leaps land both inside spans and truncated at
  // span boundaries (the wake-at-leap-target edge).
  static constexpr std::size_t kSpans[] = {1, 7, 3, 64, 2, 13, 33, 5};
  std::size_t done = 0;
  std::size_t pick = 0;
  while (done < scenario.cycles) {
    const std::size_t n = std::min(kSpans[pick++ % 8],
                                   scenario.cycles - done);
    ref_driver.run(n);
    leap_driver.run(n);
    done += n;
    if (ref.kernel().digest() != leap.kernel().digest()) {
      return diverged(ref.kernel().cycle(), "driven");
    }
  }
  for (std::size_t c = 0; c < scenario.drain_cycles; c += 16) {
    if (ref.quiescent() && leap.quiescent()) break;
    const std::size_t n =
        std::min<std::size_t>(16, scenario.drain_cycles - c);
    ref.step(n);
    leap.step(n);
    if (ref.kernel().digest() != leap.kernel().digest()) {
      return diverged(ref.kernel().cycle(), "drain");
    }
  }
  if (ref.quiescent() != leap.quiescent()) {
    result.ok = false;
    result.first_divergent_cycle = ref.kernel().cycle();
    result.detail =
        "drain divergence (full " +
        std::string(ref.quiescent() ? "quiescent" : "stuck") + ", leap " +
        std::string(leap.quiescent() ? "quiescent" : "stuck") +
        ")\n  scenario: " + describe +
        detail::attribute_divergence(ref, leap, "full", "leap");
    return result;
  }

  const auto rs = traffic::collect_run(ref, scenario.cycles);
  const auto ls = traffic::collect_run(leap, scenario.cycles);
  std::ostringstream os;
  auto check = [&os](const char* what, auto a, auto b) {
    if (a != b) os << "\n  " << what << ": full=" << a << " leap=" << b;
  };
  check("transactions", rs.transactions, ls.transactions);
  check("latency.mean", rs.latency.mean, ls.latency.mean);
  check("latency.p95", rs.latency.p95, ls.latency.p95);
  check("throughput", rs.throughput, ls.throughput);
  check("link_flits", rs.link_flits, ls.link_flits);
  check("retransmissions", rs.retransmissions, ls.retransmissions);
  check("credit_stalls", rs.credit_stalls, ls.credit_stalls);
  check("avg_link_utilization", rs.avg_link_utilization,
        ls.avg_link_utilization);
  if (!os.str().empty()) {
    result.ok = false;
    result.first_divergent_cycle = ref.kernel().cycle();
    result.detail = "stats divergence after identical digests (scenario: " +
                    describe + ")" + os.str();
  }
  return result;
}

/// Partitioned time-leap twin vs the unpartitioned full reference:
/// partition-local leaps are capped at the epoch barrier and the
/// wholesale fast-forward only fires when every partition sleeps, so
/// the PR 8 barrier protocol (digests compared per epoch, per-cycle
/// drain) applies unchanged.
inline DiffResult run_differential_timeleap_partitioned(
    const DiffScenario& scenario, std::size_t partitions,
    std::size_t sim_threads) {
  noc::Network ref(scenario.build_topology(),
                   scenario.net_config(sim::Scheduler::kFull));
  noc::Network part(scenario.build_topology(),
                    scenario.net_config(sim::Scheduler::kTimeLeap,
                                        partitions, sim_threads));
  traffic::TrafficDriver ref_driver(ref, scenario.traffic_config());
  traffic::TrafficDriver part_driver(part, scenario.traffic_config());
  std::ostringstream label;
  label << scenario.to_string() << " [leap partitioned p=" << partitions
        << " t=" << sim_threads << "]";
  return run_lockstep_partitioned(ref, part, ref_driver, part_driver,
                                  scenario.cycles, scenario.drain_cycles,
                                  label.str());
}

/// Greedy scenario shrinking: tries a fixed set of simplifying mutations
/// (shorter run, calmer traffic, fewer lanes, smaller topology) and
/// keeps each one that still reproduces a divergence. Returns the
/// minimal still-failing scenario (the input if nothing smaller fails).
/// `still_fails` decides reproduction, so the same shrinker serves the
/// per-cycle and both-granularity time-leap differentials.
template <typename StillFails>
inline DiffScenario shrink_divergence_with(DiffScenario scenario,
                                           StillFails still_fails) {
  // Cut the driven window toward the first divergent cycle first — every
  // later mutation then re-verifies against the cheap short run.
  for (int pass = 0; pass < 3; ++pass) {
    DiffScenario t = scenario;
    t.cycles = std::max<std::size_t>(1, t.cycles / 2);
    if (t.cycles < scenario.cycles && still_fails(t)) {
      scenario = t;
      continue;
    }
    break;
  }
  {
    DiffScenario t = scenario;
    t.burstiness = 0.0;
    if (scenario.burstiness != 0.0 && still_fails(t)) scenario = t;
  }
  {
    DiffScenario t = scenario;
    t.bit_error_rate = 0.0;
    if (scenario.bit_error_rate != 0.0 && still_fails(t)) scenario = t;
  }
  {
    DiffScenario t = scenario;
    t.injection_rate = scenario.injection_rate / 4;
    if (still_fails(t)) scenario = t;
  }
  // Lane reduction only where vcs == 1 routes stay deadlock-free.
  if (scenario.vcs > 1 && (scenario.topology == "mesh" ||
                           scenario.topology == "star")) {
    DiffScenario t = scenario;
    t.vcs = 1;
    if (still_fails(t)) scenario = t;
  }
  if (scenario.topology == "mesh" || scenario.topology == "torus") {
    while (scenario.width > 2 || scenario.height > 2) {
      DiffScenario t = scenario;
      if (t.width > 2) --t.width;
      else --t.height;
      if (!still_fails(t)) break;
      scenario = t;
    }
  } else {
    while (scenario.width > 3) {
      DiffScenario t = scenario;
      --t.width;
      if (!still_fails(t)) break;
      scenario = t;
    }
  }
  return scenario;
}

/// Per-cycle full/time-leap shrinker.
inline DiffScenario shrink_divergence(DiffScenario scenario) {
  return shrink_divergence_with(std::move(scenario),
                                [](const DiffScenario& s) {
                                  return !run_differential(s).ok;
                                });
}

/// run_differential + automatic shrinking on failure: the returned
/// result's detail describes the *minimal* reproduction.
inline DiffResult run_differential_shrunk(const DiffScenario& scenario) {
  DiffResult result = run_differential(scenario);
  if (result.ok) return result;
  const DiffScenario minimal = shrink_divergence(scenario);
  DiffResult shrunk = run_differential(minimal);
  if (!shrunk.ok) {
    shrunk.detail += "\n  (shrunk from: " + scenario.to_string() + ")";
    return shrunk;
  }
  return result;  // shrinking raced a flaky repro; report the original
}

/// run_differential_timeleap + automatic shrinking on failure.
inline DiffResult run_differential_timeleap_shrunk(
    const DiffScenario& scenario) {
  DiffResult result = run_differential_timeleap(scenario);
  if (result.ok) return result;
  const DiffScenario minimal = shrink_divergence_with(
      scenario,
      [](const DiffScenario& s) { return !run_differential_timeleap(s).ok; });
  DiffResult shrunk = run_differential_timeleap(minimal);
  if (!shrunk.ok) {
    shrunk.detail += "\n  (shrunk from: " + scenario.to_string() + ")";
    return shrunk;
  }
  return result;  // shrinking raced a flaky repro; report the original
}

}  // namespace xpl::testsupport
