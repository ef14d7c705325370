// xpipesCompiler: from NoC specification to instantiated network.
//
// The paper's tool reads a NoC specification plus routing tables and
// "creates a class template for each network component type", performing
// per-instance optimization (I/O port counts, buffer sizes) and emitting
// two orthogonal views of the same network:
//   * simulation view — an executable model (here: noc::Network on the
//     cycle kernel);
//   * synthesis view — SystemC source for the synthesis backend (here:
//     generated SystemC text, systemc_emitter.cpp).
// On top of the views, estimate() runs the synthesis model over every
// instance — the per-component area/power/fmax data behind figures
// F1-F7.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/noc/network.hpp"
#include "src/synth/component_models.hpp"
#include "src/synth/estimator.hpp"
#include "src/topology/topology.hpp"

namespace xpl::compiler {

/// The compiler's input: a topology plus network-wide parameters. The
/// per-instance parameters (switch radixes, buffer sizes, LUT contents)
/// are derived during compilation.
struct NocSpec {
  std::string name = "noc";
  topology::Topology topo;
  noc::NetworkConfig net;
};

/// One component instance's synthesis estimate.
struct InstanceEstimate {
  std::string name;
  std::string kind;  ///< "switch NxM", "initiator NI", "target NI"
  synth::Netlist netlist;
  synth::Estimate estimate;
};

/// Whole-NoC synthesis report (figure F5's totals).
struct SynthesisReport {
  std::vector<InstanceEstimate> instances;
  double total_area_mm2 = 0.0;
  double total_power_mw = 0.0;
  /// Slowest instance's full-effort fmax: the NoC clock ceiling.
  double min_fmax_mhz = 0.0;

  std::string to_string() const;
};

class XpipesCompiler {
 public:
  explicit XpipesCompiler(
      synth::Technology tech = synth::Technology::umc130())
      : estimator_(tech) {}

  /// Simulation view: a ready-to-run network.
  std::unique_ptr<noc::Network> build_simulation(const NocSpec& spec) const;

  /// Synthesis model over every instance, each synthesized at
  /// `target_mhz`.
  SynthesisReport estimate(const NocSpec& spec, double target_mhz,
                           double activity = 0.15) const;
  /// The same model over an already built simulation view — the one a
  /// campaign point simulates — so the network is elaborated once. Reads
  /// only per-instance configuration, which simulating never changes.
  SynthesisReport estimate(const noc::Network& network, double target_mhz,
                           double activity = 0.15) const;

  /// Synthesis view: generated SystemC, filename -> content. One class
  /// per distinct component configuration plus the hierarchical top level
  /// and the routing tables.
  std::map<std::string, std::string> emit_systemc(const NocSpec& spec) const;

  /// Writes emit_systemc() output under `directory` (created if needed).
  void write_systemc(const NocSpec& spec, const std::string& directory) const;

  /// The paper's per-instance "component optimizations: buffer sizes":
  /// sizes every switch's output queue to its routed load. Walks all
  /// routes the spec's routing algorithm produces, counts traversals per
  /// switch, and writes spec.net.output_fifo_override with depths scaled
  /// between min_depth (idle corners) and max_depth (hot centres).
  /// Returns the per-switch depths chosen.
  std::vector<std::size_t> optimize_buffer_sizes(
      NocSpec& spec, std::size_t min_depth = 2,
      std::size_t max_depth = 8) const;

  const synth::Estimator& estimator() const { return estimator_; }

 private:
  synth::Estimator estimator_;
};

}  // namespace xpl::compiler
