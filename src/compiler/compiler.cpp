#include "src/compiler/compiler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>

namespace xpl::compiler {

std::string SynthesisReport::to_string() const {
  std::ostringstream os;
  os << "instances=" << instances.size() << " area=" << total_area_mm2
     << "mm2 power=" << total_power_mw << "mW min_fmax=" << min_fmax_mhz
     << "MHz";
  return os.str();
}

std::unique_ptr<noc::Network> XpipesCompiler::build_simulation(
    const NocSpec& spec) const {
  return std::make_unique<noc::Network>(spec.topo, spec.net);
}

SynthesisReport XpipesCompiler::estimate(const NocSpec& spec,
                                         double target_mhz,
                                         double activity) const {
  return estimate(*build_simulation(spec), target_mhz, activity);
}

SynthesisReport XpipesCompiler::estimate(const noc::Network& network,
                                         double target_mhz,
                                         double activity) const {
  // The simulation view's per-instance parameter derivation is reused —
  // both views must agree on every width and depth, exactly the property
  // the paper's compiler guarantees.
  SynthesisReport report;
  report.min_fmax_mhz = std::numeric_limits<double>::infinity();

  auto add = [&](std::string name, std::string kind, synth::Netlist netlist,
                 double levels) {
    InstanceEstimate inst;
    inst.name = std::move(name);
    inst.kind = std::move(kind);
    inst.netlist = netlist;
    inst.estimate = estimator_.estimate(netlist, levels, target_mhz,
                                        activity);
    report.total_area_mm2 += inst.estimate.area_mm2;
    report.total_power_mw += inst.estimate.power_mw;
    report.min_fmax_mhz =
        std::min(report.min_fmax_mhz, inst.estimate.fmax_mhz);
    report.instances.push_back(std::move(inst));
  };

  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    const auto& config = network.switch_at(s).config();
    std::ostringstream kind;
    kind << "switch " << config.num_inputs << "x" << config.num_outputs;
    add(network.switch_at(s).name(), kind.str(),
        synth::build_switch_netlist(config),
        synth::switch_logic_levels(config));
  }
  for (std::size_t i = 0; i < network.num_initiators(); ++i) {
    const auto& config = network.initiator_ni(i).config();
    add(network.initiator_ni(i).name(), "initiator NI",
        synth::build_initiator_ni_netlist(config, network.num_targets()),
        synth::initiator_ni_logic_levels(config));
  }
  for (std::size_t t = 0; t < network.num_targets(); ++t) {
    const auto& config = network.target_ni(t).config();
    add(network.target_ni(t).name(), "target NI",
        synth::build_target_ni_netlist(config, network.num_initiators()),
        synth::target_ni_logic_levels(config));
  }
  return report;
}

std::vector<std::size_t> XpipesCompiler::optimize_buffer_sizes(
    NocSpec& spec, std::size_t min_depth, std::size_t max_depth) const {
  require(min_depth >= 1 && min_depth <= max_depth,
          "optimize_buffer_sizes: bad depth bounds");
  const auto tables =
      topology::compute_all_routes(spec.topo, spec.net.routing);

  // Count route traversals through each switch (a proxy for expected
  // contention on its output queues). NI-pair routes share their switch
  // pair's path, so each distinct path is walked once, weighted by the
  // pairs riding it: initiators at its start to targets at its end
  // (requests), and targets to initiators (responses).
  const topology::Topology& topo = spec.topo;
  std::vector<double> initiators(topo.num_switches(), 0.0);
  std::vector<double> targets(topo.num_switches(), 0.0);
  for (const std::uint32_t ni : topo.initiator_ids()) {
    initiators[topo.ni(ni).switch_id] += 1.0;
  }
  for (const std::uint32_t ni : topo.target_ids()) {
    targets[topo.ni(ni).switch_id] += 1.0;
  }
  std::vector<double> load(topo.num_switches(), 0.0);
  tables.for_each_path([&](std::uint32_t from, std::uint32_t to,
                           std::span<const std::uint8_t> links) {
    const double pairs =
        initiators[from] * targets[to] + targets[from] * initiators[to];
    std::uint32_t sw = from;
    load[sw] += pairs;
    for (const std::uint8_t selector : links) {
      sw = topo.link(topo.output_ports(sw)[selector].id).to;
      load[sw] += pairs;
    }
  });
  const double max_load =
      *std::max_element(load.begin(), load.end());

  std::vector<std::size_t> depths(spec.topo.num_switches(), min_depth);
  if (max_load > 0) {
    for (std::size_t s = 0; s < depths.size(); ++s) {
      const double frac = load[s] / max_load;
      depths[s] = min_depth + static_cast<std::size_t>(
                                  std::lround(frac * double(max_depth -
                                                            min_depth)));
    }
  }
  spec.net.output_fifo_override = depths;
  return depths;
}

}  // namespace xpl::compiler
