// xpipesCompiler: simulation view, synthesis report, SystemC emission.
#include "src/compiler/compiler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::compiler {
namespace {

NocSpec mesh_spec(std::size_t w = 2, std::size_t h = 2) {
  NocSpec spec;
  spec.name = "testnoc";
  spec.topo = topology::make_mesh(
      w, h, topology::NiPlan::uniform(w * h, 1, 1));
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  spec.net.target_window = 1 << 12;
  return spec;
}

TEST(Compiler, SimulationViewRuns) {
  XpipesCompiler xpipes;
  auto net = xpipes.build_simulation(mesh_spec());
  net->slave(0).poke(0, 0x11);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net->target_base(0);
  txn.burst_len = 1;
  net->master(3).push_transaction(txn);
  net->run_until_quiescent(5000);
  ASSERT_EQ(net->master(3).completed().size(), 1u);
  EXPECT_EQ(net->master(3).completed()[0].data.at(0), 0x11u);
}

TEST(Compiler, ReportCoversEveryInstance) {
  XpipesCompiler xpipes;
  const auto report = xpipes.estimate(mesh_spec(), 800.0);
  // 4 switches + 4 initiator NIs + 4 target NIs.
  EXPECT_EQ(report.instances.size(), 12u);
  EXPECT_GT(report.total_area_mm2, 0.0);
  EXPECT_GT(report.total_power_mw, 0.0);
  EXPECT_GT(report.min_fmax_mhz, 0.0);
  double sum = 0;
  for (const auto& inst : report.instances) {
    EXPECT_FALSE(inst.name.empty());
    EXPECT_TRUE(inst.estimate.feasible) << inst.name;
    sum += inst.estimate.area_mm2;
  }
  EXPECT_NEAR(sum, report.total_area_mm2, 1e-9);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(Compiler, ReportSeparatesComponentKinds) {
  XpipesCompiler xpipes;
  const auto report = xpipes.estimate(mesh_spec(), 800.0);
  std::size_t switches = 0;
  std::size_t inis = 0;
  std::size_t tgts = 0;
  for (const auto& inst : report.instances) {
    if (inst.kind.find("switch") != std::string::npos) ++switches;
    if (inst.kind == "initiator NI") ++inis;
    if (inst.kind == "target NI") ++tgts;
  }
  EXPECT_EQ(switches, 4u);
  EXPECT_EQ(inis, 4u);
  EXPECT_EQ(tgts, 4u);
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void expect_same_report(const SynthesisReport& a, const SynthesisReport& b) {
  EXPECT_EQ(hex(a.total_area_mm2), hex(b.total_area_mm2));
  EXPECT_EQ(hex(a.total_power_mw), hex(b.total_power_mw));
  EXPECT_EQ(hex(a.min_fmax_mhz), hex(b.min_fmax_mhz));
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    const InstanceEstimate& x = a.instances[i];
    const InstanceEstimate& y = b.instances[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(hex(x.netlist.combinational), hex(y.netlist.combinational));
    EXPECT_EQ(hex(x.netlist.flops), hex(y.netlist.flops));
    EXPECT_EQ(hex(x.estimate.area_mm2), hex(y.estimate.area_mm2));
    EXPECT_EQ(hex(x.estimate.power_mw), hex(y.estimate.power_mw));
    EXPECT_EQ(hex(x.estimate.fmax_mhz), hex(y.estimate.fmax_mhz));
    EXPECT_EQ(hex(x.estimate.target_mhz), hex(y.estimate.target_mhz));
  }
}

// Campaign points estimate the network they simulate instead of building
// a second one: the report must not depend on which it was given, nor on
// whether the network has already run traffic and drained.
TEST(Compiler, EstimateOfBuiltNetworkMatchesSpec) {
  NocSpec credit = mesh_spec(3, 3);
  credit.net.flow = link::FlowControl::kCredit;
  credit.net.vcs = 2;
  credit.net.flit_width = 64;
  NocSpec sized = mesh_spec(4, 3);
  XpipesCompiler xpipes;
  xpipes.optimize_buffer_sizes(sized);
  for (const NocSpec& spec : {mesh_spec(), credit, sized}) {
    const SynthesisReport from_spec = xpipes.estimate(spec, 800.0, 0.2);
    auto net = xpipes.build_simulation(spec);
    expect_same_report(xpipes.estimate(*net, 800.0, 0.2), from_spec);

    traffic::TrafficConfig traffic_cfg;
    traffic_cfg.injection_rate = 0.05;
    traffic::TrafficDriver driver(*net, traffic_cfg);
    driver.run(400);
    net->run_until_quiescent(20000);
    ASSERT_TRUE(net->quiescent());
    ASSERT_GT(driver.injected(), 0u);
    expect_same_report(xpipes.estimate(*net, 800.0, 0.2), from_spec);
  }
}

TEST(Compiler, MeshCaseStudyMatchesPaperInventory) {
  NocSpec spec;
  spec.name = "case_study";
  spec.topo = topology::make_paper_case_study();
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  spec.net.target_window = 1 << 12;
  XpipesCompiler xpipes;
  const auto report = xpipes.estimate(spec, 800.0);
  EXPECT_EQ(report.instances.size(), 12u + 8u + 11u);
  // The paper: a 3x4 xpipes mesh for 8 processors and 11 slaves occupies
  // ~2.6 mm2. Hold the model to the right neighbourhood.
  EXPECT_GT(report.total_area_mm2, 1.5);
  EXPECT_LT(report.total_area_mm2, 4.0);
}

TEST(Emitter, OneClassPerDistinctConfig) {
  XpipesCompiler xpipes;
  const auto files = xpipes.emit_systemc(mesh_spec());
  // 2x2 mesh with 1+1 NIs per switch: all switches are 4x4 (2 links + 2
  // NIs), all initiator NIs identical, all target NIs identical:
  // 3 component classes + routes + top.
  EXPECT_EQ(files.size(), 5u);
  EXPECT_TRUE(files.count("xpipes_switch_4x4_w32.h"));
  EXPECT_TRUE(files.count("xpipes_ni_initiator_w32.h"));
  EXPECT_TRUE(files.count("xpipes_ni_target_w32.h"));
  EXPECT_TRUE(files.count("xpipes_routes.h"));
  EXPECT_TRUE(files.count("testnoc_top.h"));
}

TEST(Emitter, HeterogeneousMeshEmitsAllShapes) {
  NocSpec spec;
  spec.name = "hetero";
  spec.topo = topology::make_paper_case_study();
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  spec.net.target_window = 1 << 12;
  XpipesCompiler xpipes;
  const auto files = xpipes.emit_systemc(spec);
  // The 3x4 case study produces several switch shapes (4x4, 5x5, 6x6...
  // depending on row), at least two distinct ones.
  std::size_t switch_classes = 0;
  for (const auto& [name, content] : files) {
    if (name.find("xpipes_switch_") == 0) ++switch_classes;
  }
  EXPECT_GE(switch_classes, 2u);
}

TEST(Emitter, SwitchHeaderContainsStructure) {
  XpipesCompiler xpipes;
  const auto files = xpipes.emit_systemc(mesh_spec());
  const auto& sw = files.at("xpipes_switch_4x4_w32.h");
  EXPECT_NE(sw.find("SC_MODULE(xpipes_switch_4x4_w32)"), std::string::npos);
  EXPECT_NE(sw.find("sc_in<bool> clock;"), std::string::npos);
  EXPECT_NE(sw.find("flit_in0"), std::string::npos);
  EXPECT_NE(sw.find("flit_in3"), std::string::npos);
  EXPECT_NE(sw.find("flit_out3"), std::string::npos);
  EXPECT_NE(sw.find("retx_buf"), std::string::npos);
  EXPECT_NE(sw.find("output_queue"), std::string::npos);
  EXPECT_NE(sw.find("SC_METHOD(arb_process)"), std::string::npos);
}

TEST(Emitter, RoutesFileCarriesComputedRoutes) {
  XpipesCompiler xpipes;
  const auto spec = mesh_spec();
  const auto files = xpipes.emit_systemc(spec);
  const auto& routes = files.at("xpipes_routes.h");
  auto net = xpipes.build_simulation(spec);
  // Every pair in the routing tables appears as a named array.
  net->routes().for_each([&](std::uint32_t src, std::uint32_t dst,
                              const topology::RouteRef&) {
    const std::string name = "xpipes_route_" + std::to_string(src) + "_" +
                             std::to_string(dst);
    EXPECT_NE(routes.find(name), std::string::npos) << name;
  });
}

TEST(Emitter, TopInstantiatesEverything) {
  XpipesCompiler xpipes;
  const auto spec = mesh_spec();
  const auto files = xpipes.emit_systemc(spec);
  const auto& top = files.at("testnoc_top.h");
  auto net = xpipes.build_simulation(spec);
  for (std::size_t s = 0; s < net->num_switches(); ++s) {
    EXPECT_NE(top.find(net->switch_at(s).name()), std::string::npos);
  }
  for (std::size_t i = 0; i < net->num_initiators(); ++i) {
    EXPECT_NE(top.find(net->initiator_ni(i).name()), std::string::npos);
  }
  // Every link signal bound.
  for (std::uint32_t l = 0; l < spec.topo.num_links(); ++l) {
    EXPECT_NE(top.find("link" + std::to_string(l) + "_flit"),
              std::string::npos);
  }
}

TEST(Emitter, Deterministic) {
  XpipesCompiler xpipes;
  const auto a = xpipes.emit_systemc(mesh_spec());
  const auto b = xpipes.emit_systemc(mesh_spec());
  EXPECT_EQ(a, b);
}

TEST(Emitter, WritesFilesToDisk) {
  XpipesCompiler xpipes;
  const std::string dir = ::testing::TempDir() + "/xpl_emit";
  xpipes.write_systemc(mesh_spec(), dir);
  std::ifstream top(dir + "/testnoc_top.h");
  EXPECT_TRUE(top.good());
}

}  // namespace
}  // namespace xpl::compiler
