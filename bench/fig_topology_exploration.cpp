// F7 — "Shift Efforts at a Higher Abstraction Layer": sample topologies.
//
// The paper's closing example: because the library is synthesizable and
// parameterizable, the flow compares whole candidate NoCs quickly —
// e.g. one topology at 925 MHz / 0.51 mm2 (+10% performance) against one
// at 850 MHz / 0.42 mm2 (-14% area), and a lower-latency alternative at
// 780 MHz / 0.48 mm2 ("fewer clock cycles, however lower clock").
//
// We run the full SunMap-style loop on the MPEG-4 decoder graph: map onto
// each candidate, estimate area/power/clock ceiling via the synthesis
// model, and measure latency/throughput with weighted traffic simulation.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/appgraph/explore.hpp"
#include "src/topology/generators.hpp"

int main() {
  using namespace xpl;
  bench::banner("F7", "sample topologies for the MPEG-4 decoder");

  const auto graph = appgraph::mpeg4_decoder();
  appgraph::ExploreOptions options;
  options.anneal_iterations = 8000;
  options.sim_cycles = 10000;
  options.injection_rate = 0.03;
  options.target_mhz = 800.0;
  options.net.target_window = 1 << 12;

  std::vector<appgraph::Candidate> candidates;
  candidates.push_back(
      {"mesh_4x3",
       topology::make_mesh(4, 3, topology::NiPlan::uniform(12, 0, 0))});
  candidates.push_back(
      {"mesh_3x3",
       topology::make_mesh(3, 3, topology::NiPlan::uniform(9, 0, 0))});
  candidates.push_back(
      {"star_5",
       topology::make_star(5, topology::NiPlan::uniform(6, 0, 0))});
  candidates.push_back(
      {"spidergon_6",
       topology::make_spidergon(6, topology::NiPlan::uniform(6, 0, 0))});
  candidates.push_back(
      {"ring_6", topology::make_ring(6, topology::NiPlan::uniform(6, 0, 0))});

  // Candidates are independent jobs: run them on the sweep subsystem's
  // thread pool (results identical for any job count).
  options.jobs = 0;  // hardware concurrency
  const auto results = explore(graph, candidates, options);
  const auto front = appgraph::pareto_front(results);

  std::printf("%-14s %-10s %-10s %-10s %-12s %-12s %-12s %s\n", "topology",
              "area_mm2", "power_mW", "fmax_MHz", "map_cost",
              "lat_cycles", "thru_t/cy", "pareto");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    std::printf(
        "%-14s %-10.3f %-10.1f %-10.0f %-12.0f %-12.1f %-12.4f %s\n",
        r.name.c_str(), r.area_mm2, r.power_mw, r.fmax_mhz, r.mapping_cost,
        r.avg_latency_cycles, r.throughput_tpc, on_front ? "*" : "");
  }
  std::printf(
      "\npaper: candidates trade clock for area for hop count — e.g.\n"
      "925 MHz / 0.51 mm2 (+10%% performance) vs 850 MHz / 0.42 mm2\n"
      "(-14%% area) vs 780 MHz / 0.48 mm2 (fewer cycles per txn).\n"
      "Expect the same pattern: bigger meshes clock high and spend area;\n"
      "stars/rings are small but add hops (higher latency in cycles).\n");
  return 0;
}
