// Declarative design-space sweep specification.
//
// The paper's argument is that a synthesis-oriented NoC library lets
// designers *sweep* flit widths, buffer depths, topologies and traffic
// patterns to find per-SoC optimal instances. A SweepSpec declares that
// campaign: a set of axes (each a list of values) whose cross product is
// the candidate grid, optionally subsampled at random. Every grid point
// resolves to one fully independent simulation job (a SweepPoint), so
// campaigns parallelize trivially — see runner.hpp.
//
// The file format is line-oriented and comment-friendly like the NoC
// specification format (src/compiler/spec_io.hpp), and round-trips
// exactly: write_sweep(parse_sweep(text)) is canonical. docs/FORMATS.md
// is the authoritative format reference.
//
// Directive grammar: one `<key> <value...>` per line; `#` comments to end
// of line. Scalar directives (`sweep`, `seed`, `cycles`, `drain`,
// `samples`, `target_mhz`, `read_fraction`, `max_burst`, `threads`,
// `partitions`, `concentration`) take exactly one value and apply
// campaign-wide. Axis directives take one or more values
// and replace that axis's default on first sight; the campaign grid is
// the cross product of all axes in the fixed order below (topology
// outermost, injection rate innermost), regardless of the order the
// directives appear in the file.
//
//   # xsweep campaign specification
//   sweep mesh_scan
//   seed 1
//   cycles 5000            # driven simulation cycles per point
//   drain 40000            # extra cycles allowed for draining
//   samples 0              # 0 = full grid, N = random subset of N points
//   target_mhz 800         # synthesis target for area/power estimates
//   read_fraction 0.5
//   max_burst 2
//   routing auto           # campaign-wide: auto | minimal | xy | updown
//   scheduler gated        # campaign-wide: full | time_leap (gated = alias)
//   threads 1              # campaign-wide: sim threads per point
//   partitions 1           # campaign-wide: kernel partitions per point
//   concentration 4        # campaign-wide: cmesh NIs per switch
//   topology mesh          # axis: mesh | torus | ring | star | spidergon
//                          #       | cmesh (concentrated mesh)
//   width 4 6 8            # axis: mesh/torus width (node count otherwise)
//   height 4               # axis: mesh/torus height (ignored otherwise)
//   flit_width 32 64       # axis
//   fifo_depth 4           # axis: switch output queue depth
//   vcs 1 2 4              # axis: virtual channels per link
//   flow ack_nack credit   # axis: link-level flow control
//   pattern uniform        # axis: uniform | hotspot | permutation
//                          #       | app:mpeg4 | app:vopd | app:mwd
//   warmup 0 500           # axis: cycles excluded from the stats window
//   burstiness 0 0.6       # axis: on/off injection burstiness in [0, 1)
//   injection_rate 0.01 0.05  # axis
//
// `traffic` is accepted as an alias for `pattern`. An `app:<name>` value
// runs the named embedded SoC benchmark (src/workload/benchmarks.hpp):
// the point's core graph is placed on its topology deterministically and
// the resulting bandwidth matrix drives Pattern::kWeighted traffic.
//
// `routing` selects the routing algorithm for every point: `auto` (the
// default — XY on meshes, up*/down* elsewhere), `minimal` (shortest
// path; on rings/tori/spidergons with vcs >= 2 this engages dateline
// virtual-channel assignment, and with vcs == 1 the deadlock checker
// fails such points fast instead of letting them hang), `xy`, `updown`.
// `vcs` is an axis like `flow`: its CSV/JSON column appears only when
// the axis is actually swept, so legacy exports stay byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/text.hpp"
#include "src/noc/network.hpp"
#include "src/topology/topology.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::sweep {

/// One fully resolved simulation job: everything a worker needs to build
/// and run one independent Network. RNG seeds are derived from the spec
/// seed and the point's campaign index — never from scheduling order — so
/// results are bit-identical regardless of thread count.
struct SweepPoint {
  std::size_t index = 0;     ///< position in the campaign (export order)
  std::string topology = "mesh";
  std::size_t width = 4;     ///< mesh/torus width; node count otherwise
  std::size_t height = 4;    ///< mesh/torus height; ignored otherwise
  std::size_t concentration = 1;  ///< cmesh only: NIs per switch
  std::size_t sim_cycles = 5000;
  std::size_t drain_cycles = 40000;
  /// Cycles excluded from the front of the measurement window (stats
  /// ignore transactions issued before this; see traffic::collect_run).
  std::size_t warmup = 0;
  /// Embedded app benchmark driving kWeighted traffic ("mpeg4", "vopd",
  /// "mwd"); empty = synthetic pattern. The weight matrix is derived in
  /// run_point by deterministic placement onto the built topology.
  std::string app;
  double target_mhz = 800.0;
  /// Run the synthesis model for area/power/fmax. Costs a second network
  /// elaboration per point (the estimator walks every instance); drivers
  /// that only need simulation metrics turn it off.
  bool estimate = true;
  noc::NetworkConfig net;
  traffic::TrafficConfig traffic;

  /// Number of switches this point's topology instantiates.
  std::size_t num_switches() const;

  /// Builds the topology (one initiator and one target NI per switch).
  topology::Topology build_topology() const;

  /// The pattern axis value this point was resolved from: the synthetic
  /// pattern name, or "app:<name>" for benchmark points. Used by label()
  /// and the result exporters.
  std::string pattern_label() const;

  /// Compact human identifier, e.g. "mesh_4x4_f32_q4_uniform_r0.02";
  /// app points read e.g. "mesh_4x3_f32_q4_mpeg4_r0.02", non-default
  /// burstiness / warmup append "_b<val>" / "_w<val>", multi-lane points
  /// append "_v<vcs>", and credit-mode points append "_credit".
  std::string label() const;
};

/// The campaign declaration: axes plus campaign-wide scalars.
struct SweepSpec {
  std::string name = "sweep";
  std::uint64_t seed = 1;
  std::size_t sim_cycles = 5000;
  std::size_t drain_cycles = 40000;
  /// 0 = run the full grid; otherwise run a deterministic random subset
  /// of this many distinct grid points (drawn from `seed`).
  std::size_t samples = 0;
  double target_mhz = 800.0;
  double read_fraction = 0.5;
  std::uint32_t max_burst = 2;
  /// Campaign-wide routing selection: "auto" | "minimal" | "xy" |
  /// "updown" (see file comment).
  std::string routing = "auto";
  /// Campaign-wide kernel scheduling policy: "full" runs the tick-
  /// everything reference (for cross-checking a suspected divergence);
  /// "time_leap" and "gated" (a legacy alias, and the default) run the
  /// production time-leap kernel. Both kernels produce byte-identical
  /// results (DESIGN.md §2). The default stays "gated" and is always
  /// written back, because checkpoint sidecars embed the canonical text.
  std::string scheduler = "gated";
  /// Campaign-wide partitioned-simulation knobs (DESIGN.md §10): every
  /// point's kernel is split into `partitions` conservative partitions
  /// run by `threads` worker threads. Results are byte-identical at any
  /// setting — these are throughput knobs, not axes, which is why they
  /// are scalars (sweeping them would only duplicate points). This
  /// `threads` parallelizes *within* one point; xsweep --jobs runs
  /// points concurrently — compose with --max-hw-threads (xsweep) so
  /// jobs × threads stays within the machine.
  std::size_t threads = 1;
  std::size_t partitions = 1;
  /// NIs per switch for cmesh topology points (ignored elsewhere).
  std::size_t concentration = 4;

  // Axes. The grid is the cross product in this (fixed) order, topology
  // outermost, injection rate innermost.
  std::vector<std::string> topologies = {"mesh"};
  std::vector<std::size_t> widths = {4};
  std::vector<std::size_t> heights = {4};
  std::vector<std::size_t> flit_widths = {32};
  std::vector<std::size_t> fifo_depths = {4};
  /// Virtual channels per link (noc::NetworkConfig::vcs).
  std::vector<std::size_t> vcss = {1};
  /// Link-level flow control: "ack_nack" and/or "credit" (flow.hpp).
  std::vector<std::string> flows = {"ack_nack"};
  /// Synthetic pattern names and/or "app:<benchmark>" values.
  std::vector<std::string> patterns = {"uniform"};
  std::vector<std::size_t> warmups = {0};
  std::vector<double> burstinesses = {0.0};
  std::vector<double> injection_rates = {0.05};

  /// Full cross-product size.
  std::size_t grid_size() const;
  /// Points the campaign actually runs (= grid_size() unless sampled).
  std::size_t num_points() const;

  /// Resolves campaign point `i` (0 <= i < num_points()), including its
  /// derived RNG seeds.
  SweepPoint point(std::size_t i) const;
  /// All campaign points in export order.
  std::vector<SweepPoint> points() const;

  /// Throws xpl::Error when an axis is empty or holds an unknown value.
  void validate() const;

 private:
  /// Grid cell of every campaign point, in campaign order (identity for a
  /// full grid; the sorted Floyd sample otherwise).
  std::vector<std::size_t> campaign_grid_indices() const;
  /// Resolves one grid cell to a point carrying `campaign_index`.
  SweepPoint resolve_grid_point(std::size_t grid_index,
                                std::size_t campaign_index) const;
};

/// The campaign vocabulary, shared by `.sweep` and `.tune`: each check
/// accepts one token or fails through text::fail at `at`. Parsers pass
/// the token's line ("<fmt> line N: ..."); validate() of an in-memory spec
/// passes line 0 ("<fmt>: ...").
void check_topology(const std::string& name, const text::Where& at);
void check_routing(const std::string& name, const text::Where& at);
/// A synthetic pattern name or "app:<embedded benchmark>".
void check_pattern(const std::string& name, const text::Where& at);
void check_flow(const std::string& name, const text::Where& at);

/// Deterministic per-job seed: splitmix64 of the spec seed and the point's
/// campaign index. Exposed for tests.
std::uint64_t derive_seed(std::uint64_t spec_seed, std::uint64_t salt);

/// Parses a sweep specification; throws xpl::Error with a line number on
/// malformed input.
SweepSpec parse_sweep(const std::string& text);

/// Reads and parses a sweep specification file.
SweepSpec load_sweep(const std::string& path);

/// Renders `spec` in canonical form (stable ordering, one key per line).
std::string write_sweep(const SweepSpec& spec);

/// Writes the canonical form to `path`.
void save_sweep(const SweepSpec& spec, const std::string& path);

}  // namespace xpl::sweep
