// Regression tests for the behavioral determinism bugs xlint's
// unstable-sort check (XL103, docs/LINTING.md) surfaced in PR 9.
//
// Both sorts ranked by a single projection with std::sort, leaving the
// relative order of ties unspecified: stable for <= 16 elements on
// libstdc++ (insertion sort), silently permuted beyond that, and
// different again on other standard libraries. The fixes pin tie order
// to input (= creation/index) order with std::stable_sort; these tests
// use > 16 tied elements so the pre-fix introsort path actually engages
// and the tests fail without the fix.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/appgraph/core_graph.hpp"
#include "src/appgraph/mapping.hpp"
#include "src/noc/network.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"

namespace xpl {
namespace {

// collect_link_loads ranks links by descending flit count. An idle
// network makes every link a tie, so the report order must be exactly
// the creation order of link_stats() — the order every other export
// anchors to (DESIGN.md §10) — not an introsort shuffle of it.
TEST(LintRegress, IdleLinkLoadsKeepCreationOrder) {
  noc::NetworkConfig cfg;
  cfg.flit_width = 32;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  noc::Network net(
      topology::make_mesh(3, 3, topology::NiPlan::uniform(9, 1, 1)), cfg);
  net.kernel().run(16);  // idle: no traffic, all links carry zero flits

  const auto stats = net.link_stats();
  const auto loads = traffic::collect_link_loads(net, 16);
  ASSERT_EQ(loads.size(), stats.size());
  ASSERT_GT(loads.size(), 16u);  // large enough to leave insertion-sort
  for (std::size_t i = 0; i < loads.size(); ++i) {
    EXPECT_EQ(loads[i].flits, 0u);
    EXPECT_EQ(loads[i].name, stats[i].name)
        << "tied link load rank " << i << " left creation order";
  }
}

// greedy_map places cores in decreasing-traffic order. Cores with equal
// traffic must place in core-index order; with zero flows every core is
// a tie and every placement cost is zero, so the documented fixed point
// is the identity mapping (core i on switch i). The pre-fix std::sort
// permutes > 16 tied cores and scatters them instead.
TEST(LintRegress, EqualTrafficCoresPlaceInIndexOrder) {
  appgraph::CoreGraph graph("ties");
  const std::size_t cores = 20;
  for (std::size_t c = 0; c < cores; ++c) {
    graph.add_core(std::string("c").append(std::to_string(c)));
  }
  const auto topo =
      topology::make_ring(cores, topology::NiPlan::uniform(cores, 1, 1));
  const appgraph::Mapping mapping = appgraph::greedy_map(graph, topo);
  ASSERT_EQ(mapping.core_to_switch.size(), cores);
  for (std::uint32_t c = 0; c < cores; ++c) {
    EXPECT_EQ(mapping.core_to_switch[c], c)
        << "equal-traffic core " << c << " left index order";
  }
}

// Same property under equal nonzero traffic: a 20-stage pipeline whose
// flows all carry identical bandwidth. Placement must be reproducible
// across standard libraries, which the index-order tie-break guarantees;
// this pins the concrete mapping the stable order produces (chain
// neighbors co-locate next to each other along the ring).
TEST(LintRegress, EqualBandwidthPipelineMapsDeterministically) {
  appgraph::CoreGraph graph("pipe");
  const std::uint32_t cores = 20;
  for (std::uint32_t c = 0; c < cores; ++c) {
    graph.add_core(std::string("c").append(std::to_string(c)));
  }
  for (std::uint32_t c = 0; c + 1 < cores; ++c) {
    graph.add_flow(c, c + 1, 1.0);
  }
  const auto topo =
      topology::make_ring(cores, topology::NiPlan::uniform(cores, 1, 1));
  const appgraph::Mapping a = appgraph::greedy_map(graph, topo);
  // Interior cores all carry traffic 2.0 (head/tail carry 1.0): heavy
  // ties everywhere. The chain must come out contiguous on the ring —
  // every flow's endpoints at most one hop apart — which only holds
  // when tied cores keep index order (core c's predecessor is already
  // placed when c places).
  const auto dist = appgraph::switch_distances(topo);
  for (std::uint32_t c = 0; c + 1 < cores; ++c) {
    EXPECT_LE(dist[a.core_to_switch[c]][a.core_to_switch[c + 1]], 1u)
        << "pipeline stage " << c << " -> " << c + 1 << " not adjacent";
  }
}

}  // namespace
}  // namespace xpl
