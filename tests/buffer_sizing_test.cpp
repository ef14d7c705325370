// Compiler buffer-sizing pass: the paper's per-instance "component
// optimizations: buffer sizes".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/compiler/compiler.hpp"
#include "src/synth/component_models.hpp"
#include "src/topology/generators.hpp"
#include "src/topology/routing.hpp"

namespace xpl::compiler {
namespace {

NocSpec mesh_spec(std::size_t w, std::size_t h) {
  NocSpec spec;
  spec.name = "buf";
  spec.topo = topology::make_mesh(
      w, h, topology::NiPlan::uniform(w * h, 1, 1));
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  spec.net.target_window = 1 << 12;
  return spec;
}

TEST(BufferSizing, CentreGetsDeeperQueuesThanCorners) {
  NocSpec spec = mesh_spec(3, 3);
  XpipesCompiler xpipes;
  const auto depths = xpipes.optimize_buffer_sizes(spec, 2, 8);
  ASSERT_EQ(depths.size(), 9u);
  // XY routing concentrates traffic through the centre switch (id 4).
  EXPECT_GT(depths[4], depths[0]);
  EXPECT_GT(depths[4], depths[8]);
  EXPECT_EQ(depths[4], 8u);  // hottest switch gets max depth
  for (const auto d : depths) {
    EXPECT_GE(d, 2u);
    EXPECT_LE(d, 8u);
  }
}

// The sizing rule spelled out per NI-pair route: every route adds one
// to each switch it visits, and depths scale with load / max load.
std::vector<std::size_t> per_route_depths(const NocSpec& spec,
                                          std::size_t min_depth,
                                          std::size_t max_depth) {
  const auto tables =
      topology::compute_all_routes(spec.topo, spec.net.routing);
  std::vector<double> load(spec.topo.num_switches(), 0.0);
  tables.for_each([&](std::uint32_t src, std::uint32_t,
                      const topology::RouteRef& route) {
    for (const std::uint32_t sw :
         topology::route_switch_path(spec.topo, src, route.links)) {
      load[sw] += 1.0;
    }
  });
  const double max_load = *std::max_element(load.begin(), load.end());
  std::vector<std::size_t> depths(load.size(), min_depth);
  for (std::size_t s = 0; s < depths.size(); ++s) {
    depths[s] = min_depth + static_cast<std::size_t>(std::lround(
                                load[s] / max_load *
                                double(max_depth - min_depth)));
  }
  return depths;
}

TEST(BufferSizing, PathWeightsMatchThePerRouteCount) {
  // The pass walks each switch pair's path once, weighted by the NI
  // pairs sharing it. Its depths must equal a count over every NI-pair
  // route, on a large mesh and on a dateline torus with an uneven NI
  // plan (so the request and response weights differ per switch).
  XpipesCompiler xpipes;
  NocSpec mesh = mesh_spec(12, 12);
  const auto mesh_depths = xpipes.optimize_buffer_sizes(mesh, 2, 8);
  EXPECT_EQ(mesh_depths, per_route_depths(mesh, 2, 8));

  NocSpec torus;
  torus.name = "buf_torus";
  topology::NiPlan plan = topology::NiPlan::uniform(36, 1, 1);
  for (std::size_t s = 0; s < 36; ++s) {
    plan.initiators[s] = s % 3;
    plan.targets[s] = (s / 2) % 2 + (s % 5 == 0 ? 1 : 0);
  }
  torus.topo = topology::make_torus(6, 6, plan);
  torus.net.vcs = 2;
  torus.net.target_window = 1 << 12;
  const auto torus_depths = xpipes.optimize_buffer_sizes(torus, 1, 16);
  EXPECT_EQ(torus_depths, per_route_depths(torus, 1, 16));
  EXPECT_GT(*std::max_element(torus_depths.begin(), torus_depths.end()),
            *std::min_element(torus_depths.begin(), torus_depths.end()));
}

TEST(BufferSizing, OverrideReachesInstantiatedSwitches) {
  NocSpec spec = mesh_spec(3, 3);
  XpipesCompiler xpipes;
  const auto depths = xpipes.optimize_buffer_sizes(spec, 2, 8);
  auto net = xpipes.build_simulation(spec);
  for (std::size_t s = 0; s < net->num_switches(); ++s) {
    EXPECT_EQ(net->switch_at(s).config().output_fifo_depth, depths[s])
        << "switch " << s;
  }
}

TEST(BufferSizing, SavesAreaVersusUniformMaxDepth) {
  XpipesCompiler xpipes;
  NocSpec uniform = mesh_spec(3, 3);
  uniform.net.output_fifo_depth = 8;  // everyone sized for the worst case
  NocSpec sized = mesh_spec(3, 3);
  xpipes.optimize_buffer_sizes(sized, 2, 8);
  const double uniform_area = xpipes.estimate(uniform, 800.0).total_area_mm2;
  const double sized_area = xpipes.estimate(sized, 800.0).total_area_mm2;
  EXPECT_LT(sized_area, uniform_area * 0.97);
}

TEST(BufferSizing, OptimizedNetworkStillCorrect) {
  NocSpec spec = mesh_spec(2, 2);
  XpipesCompiler xpipes;
  xpipes.optimize_buffer_sizes(spec, 1, 4);
  auto net = xpipes.build_simulation(spec);
  net->slave(2).poke(0x10, 0xBEEF);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net->target_base(2) + 0x10;
  txn.burst_len = 1;
  net->master(1).push_transaction(txn);
  net->run_until_quiescent(10000);
  ASSERT_EQ(net->master(1).completed().size(), 1u);
  EXPECT_EQ(net->master(1).completed()[0].data.at(0), 0xBEEFu);
}

TEST(BufferSizing, PerLinkWindowsSmallerThanWorstCase) {
  // A network with one long pipelined link: only the ports on that link
  // pay for a deep retransmission window; a worst-case-uniform sizing
  // would charge every port. Compare the two switch netlists directly.
  topology::Topology topo;
  const auto a = topo.add_switch("a");
  const auto b = topo.add_switch("b");
  const auto c = topo.add_switch("c");
  topo.add_duplex(a, b, /*stages=*/6);  // long wire
  topo.add_duplex(b, c, /*stages=*/0);  // short wire
  topo.attach_initiator(a);
  topo.attach_target(c);
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kShortestPath;
  cfg.target_window = 1 << 12;
  noc::Network net(topo, cfg);

  // Switch b has one long-link port pair and one short pair.
  const auto& sized = net.switch_at(b).config();
  switchlib::SwitchConfig uniform = sized;
  uniform.input_protocols.clear();
  uniform.output_protocols.clear();  // falls back to worst-case protocol
  const auto n_sized = synth::build_switch_netlist(sized);
  const auto n_uniform = synth::build_switch_netlist(uniform);
  EXPECT_LT(n_sized.flops, n_uniform.flops);

  // And the network still works end to end across the long link.
  net.slave(0).poke(0, 0x31);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net.target_base(0);
  txn.burst_len = 1;
  net.master(0).push_transaction(txn);
  net.run_until_quiescent(10000);
  ASSERT_EQ(net.master(0).completed().size(), 1u);
  EXPECT_EQ(net.master(0).completed()[0].data.at(0), 0x31u);
}

TEST(BufferSizing, RejectsBadBounds) {
  NocSpec spec = mesh_spec(2, 2);
  XpipesCompiler xpipes;
  EXPECT_THROW(xpipes.optimize_buffer_sizes(spec, 0, 4), Error);
  EXPECT_THROW(xpipes.optimize_buffer_sizes(spec, 5, 4), Error);
}

}  // namespace
}  // namespace xpl::compiler
