#include "src/appgraph/explore.hpp"

#include <algorithm>

#include "src/sweep/pareto.hpp"
#include "src/sweep/runner.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::appgraph {

std::vector<ExplorationResult> explore(
    const CoreGraph& graph, const std::vector<Candidate>& candidates,
    const ExploreOptions& options) {
  std::vector<ExplorationResult> results(candidates.size());

  // Each candidate is mapped, estimated and simulated from its own Rng
  // and its own Network, so the loop runs on the sweep subsystem's
  // thread pool; slot `i` makes results independent of schedule.
  const sweep::SweepRunner runner(options.jobs);
  runner.run_indexed(candidates.size(), [&](std::size_t index) {
    const Candidate& candidate = candidates[index];
    const compiler::XpipesCompiler xpipes;
    Rng rng(options.seed);
    const auto dist = switch_distances(candidate.topo);
    Mapping mapping = greedy_map(graph, candidate.topo);
    mapping = anneal_map(graph, candidate.topo, mapping, rng,
                         options.anneal_iterations);
    MappedNoc mapped = build_mapped_topology(graph, candidate.topo, mapping);

    ExplorationResult result;
    if (options.floorplan_aware) {
      // Physical pass: place switches, derive per-link pipeline stages.
      const Floorplan plan =
          make_floorplan(mapped.topo, options.floorplan, rng);
      apply_link_stages(mapped.topo, plan, options.floorplan.mm_per_cycle);
      result.wire_mm = plan.total_wire_mm(mapped.topo);
      for (std::uint32_t l = 0; l < mapped.topo.num_links(); ++l) {
        result.max_link_stages = std::max(result.max_link_stages,
                                          mapped.topo.link(l).stages);
      }
    }

    compiler::NocSpec spec;
    spec.name = candidate.name;
    spec.topo = mapped.topo;
    spec.net = options.net;
    // Meshes (grid coordinates present) route XY; everything else uses
    // up*/down* — both provably deadlock-free.
    spec.net.routing = candidate.topo.switch_node(0).x >= 0
                           ? topology::RoutingAlgorithm::kXY
                           : topology::RoutingAlgorithm::kUpDown;

    result.name = candidate.name;
    result.mapping_cost = mapping_cost(graph, dist, mapping);

    // One elaboration serves both the synthesis estimate and the short
    // weighted-traffic simulation for latency/throughput.
    const auto network = xpipes.build_simulation(spec);
    const auto report = xpipes.estimate(*network, options.target_mhz);
    result.area_mm2 = report.total_area_mm2;
    result.power_mw = report.total_power_mw;
    result.fmax_mhz = report.min_fmax_mhz;

    traffic::TrafficConfig tcfg;
    tcfg.pattern = traffic::Pattern::kWeighted;
    tcfg.weights = mapped.weights;
    tcfg.injection_rate = options.injection_rate;
    tcfg.read_fraction = 0.5;
    tcfg.seed = options.seed;
    traffic::TrafficDriver driver(*network, tcfg);
    driver.run(options.sim_cycles);
    network->run_until_quiescent(options.sim_cycles);
    const auto stats = traffic::collect_run(*network, options.sim_cycles);
    result.avg_latency_cycles = stats.latency.mean;
    result.throughput_tpc = stats.throughput;

    results[index] = std::move(result);
  });
  return results;
}

std::vector<std::size_t> pareto_front(
    const std::vector<ExplorationResult>& results) {
  std::vector<std::vector<double>> objectives;
  objectives.reserve(results.size());
  for (const auto& r : results) {
    objectives.push_back({r.area_mm2, r.power_mw, r.avg_latency_cycles});
  }
  return sweep::pareto_front_min(objectives);
}

std::vector<Candidate> default_candidates(std::size_t num_cores) {
  std::vector<Candidate> out;
  // Mesh just large enough, mesh one size up, ring, star, spidergon.
  std::size_t w = 1;
  std::size_t h = 1;
  while (w * h < num_cores) {
    if (w <= h) {
      ++w;
    } else {
      ++h;
    }
  }
  out.push_back({"mesh_" + std::to_string(w) + "x" + std::to_string(h),
                 topology::make_mesh(w, h, topology::NiPlan::uniform(
                                               w * h, 0, 0))});
  out.push_back(
      {"mesh_" + std::to_string(w + 1) + "x" + std::to_string(h),
       topology::make_mesh(w + 1, h,
                           topology::NiPlan::uniform((w + 1) * h, 0, 0))});
  const std::size_t ring_size = std::max<std::size_t>(3, (num_cores + 1) / 2);
  out.push_back({"ring_" + std::to_string(ring_size),
                 topology::make_ring(ring_size, topology::NiPlan::uniform(
                                                    ring_size, 0, 0))});
  const std::size_t leaves = std::max<std::size_t>(2, (num_cores + 2) / 3);
  out.push_back({"star_" + std::to_string(leaves),
                 topology::make_star(leaves, topology::NiPlan::uniform(
                                                 leaves + 1, 0, 0))});
  std::size_t spider = std::max<std::size_t>(4, (num_cores + 1) / 2);
  if (spider % 2 != 0) ++spider;
  out.push_back({"spidergon_" + std::to_string(spider),
                 topology::make_spidergon(spider, topology::NiPlan::uniform(
                                                      spider, 0, 0))});
  return out;
}

}  // namespace xpl::appgraph
