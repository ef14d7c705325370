// `.tune` — closed-loop auto-tuning specification.
//
// The paper frames the library as a design-space exploration tool; a
// `.tune` spec closes the loop: instead of enumerating a grid, it names
// a *base* network (topology, flit width, workload, evaluation rate), a
// weighted objective over the simulation + synthesis metrics, a set of
// search axes with candidate values, and an evaluation budget. The tuner
// (tuner.hpp) then drives the sweep engine point-by-point through the
// Proposer hook and emits the winning configurations as ready-to-run
// `.noc` files. docs/FORMATS.md §4 is the format reference.
//
//   # xtune specification
//   tune mesh_tune
//   seed 1
//   cycles 1500              # full-fidelity simulation window
//   drain 30000
//   warmup 0
//   budget 64                # max simulations (all fidelities count)
//   rate 0.1                 # evaluation injection rate for the objective
//   burstiness 0
//   read_fraction 0.5
//   max_burst 2
//   target_mhz 800
//   objective latency 1 area 0.2 power 0.05
//   topology mesh            # base network: one value each, not axes
//   width 4
//   height 4
//   flit_width 32
//   pattern uniform          # synthetic pattern or app:<benchmark>
//   search fifo_depth 2 4 8  # candidate values, searched
//   search vcs 1 2
//   search flow ack_nack credit
//   search routing auto minimal
//   saturation 0.02 0.64 0.01   # optional: lo hi rel_tol — also
//                               # bisection-search the winner's
//                               # saturation injection rate
//
// `objective` takes key/weight pairs over latency | p95 | throughput |
// area | power; score = w_lat*avg_latency + w_p95*p95 - w_thr*throughput
// + w_area*area + w_power*power, lower is better (throughput's weight
// rewards, never penalizes). `search` accepts the four axes above; an
// axis never mentioned stays pinned at its default. `topology`, `pattern`
// and the flow/routing search values take exactly the `.sweep` tokens
// (sweep::check_*); a cmesh runs at the `.sweep` default concentration.
// The format round-trips exactly: write_tune(parse_tune(text)) is
// canonical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sweep/result.hpp"
#include "src/sweep/spec.hpp"

namespace xpl::tune {

/// Weighted scalarization of a sweep result; lower is better. Failed
/// points score +infinity so every search strategy naturally avoids them.
struct Objective {
  double latency = 1.0;
  double p95 = 0.0;
  double throughput = 0.0;
  double area = 0.0;
  double power = 0.0;

  double score(const sweep::SweepResult& r) const;
};

/// Saturation bisection parameters (saturation.hpp). A rate counts as
/// saturated when the mean end-to-end latency of completed transactions
/// exceeds `latency_blowup` times the calibration latency at `lo` — the
/// classic load-latency knee criterion. (Delivered throughput is not a
/// usable signal here: the runner drains every injected transaction, so
/// measured throughput tracks the offered rate even past saturation,
/// while queueing delay diverges exactly at the knee.)
struct SaturationConfig {
  bool enabled = false;
  double lo = 0.02;      ///< calibration rate, assumed unsaturated
  double hi = 0.64;      ///< upper bracket
  double rel_tol = 0.01; ///< stop when the bracket shrinks below rel_tol*hi
  /// Knee multiplier. 1.6 sits in the steep part of the load-latency
  /// rise for every shipped topology; the plateau ratio (saturated vs
  /// zero-load mean latency) runs as low as ~1.8x on small tori, so
  /// larger factors can fail to fire inside the bracket.
  double latency_blowup = 1.6;
};

struct TuneSpec {
  std::string name = "tune";
  std::uint64_t seed = 1;
  std::size_t sim_cycles = 1500;
  std::size_t drain_cycles = 40000;
  std::size_t warmup = 0;
  /// Max simulations across all phases (rungs, climb, saturation).
  std::size_t budget = 64;
  double rate = 0.05;
  double burstiness = 0.0;
  double read_fraction = 0.5;
  std::uint32_t max_burst = 2;
  double target_mhz = 800.0;
  Objective objective;

  // Base network (single values — the part of the space not searched).
  std::string topology = "mesh";
  std::size_t width = 4;
  std::size_t height = 4;
  std::size_t flit_width = 32;
  std::string pattern = "uniform";

  // Search axes: candidate values; single-element = pinned. Config ids
  // are the mixed-radix cross product, fifo_depth innermost and routing
  // outermost (mirroring SweepSpec's fixed decode order).
  std::vector<std::size_t> fifo_depths = {4};
  std::vector<std::size_t> vcss = {1};
  std::vector<std::string> flows = {"ack_nack"};
  std::vector<std::string> routings = {"auto"};

  SaturationConfig saturation;

  /// Throws xpl::Error on invalid values.
  void validate() const;

  /// Search-space size (cross product of the search axes).
  std::size_t num_configs() const;
  /// Per-axis candidate indices of config `c` (fifo, vcs, flow, routing).
  struct ConfigIdx {
    std::size_t fifo = 0, vcs = 0, flow = 0, routing = 0;
  };
  ConfigIdx config_indices(std::size_t c) const;
  std::size_t config_id(const ConfigIdx& idx) const;

  /// Fully resolved sweep point for config `c` at the evaluation rate.
  /// Every config shares the same derived RNG seeds (grid cell 0 of an
  /// internal one-point SweepSpec), so comparisons are paired: each
  /// candidate faces the identical traffic stream.
  sweep::SweepPoint config_point(std::size_t c) const;
  /// Compact config tag, e.g. "q4_v2_credit_minimal".
  std::string config_label(std::size_t c) const;
};

/// Parses a tune specification; throws xpl::Error with a line number on
/// malformed input.
TuneSpec parse_tune(const std::string& text);
TuneSpec load_tune(const std::string& path);
/// Canonical form (stable ordering, one key per line); round-trips.
std::string write_tune(const TuneSpec& spec);
void save_tune(const TuneSpec& spec, const std::string& path);

}  // namespace xpl::tune
