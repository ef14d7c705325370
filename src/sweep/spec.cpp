#include "src/sweep/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/text.hpp"
#include "src/link/flow.hpp"
#include "src/sweep/format.hpp"
#include "src/topology/generators.hpp"
#include "src/workload/benchmarks.hpp"

namespace xpl::sweep {

namespace {

using text::fail;
using text::parse_f64;
using text::parse_u64;

/// The synthetic pattern `name` names; nullopt for anything else.
std::optional<traffic::Pattern> synthetic_pattern(const std::string& name) {
  if (name == "uniform") return traffic::Pattern::kUniformRandom;
  if (name == "hotspot") return traffic::Pattern::kHotspot;
  if (name == "permutation") return traffic::Pattern::kPermutation;
  return std::nullopt;
}

/// "app:mpeg4" -> "mpeg4"; empty string when `name` is not an app value.
std::string app_benchmark_of(const std::string& name) {
  if (name.rfind("app:", 0) == 0) return name.substr(4);
  return {};
}

void check_scheduler(const std::string& name, const text::Where& at) {
  if (name != "gated" && name != "full" && name != "time_leap") {
    fail(at, "unknown scheduler '" + name +
                 "' (expected gated | full | time_leap)");
  }
}

}  // namespace

void check_topology(const std::string& name, const text::Where& at) {
  static const std::set<std::string> known_topologies{
      "mesh", "torus", "ring", "star", "spidergon", "cmesh"};
  if (!known_topologies.count(name)) {
    fail(at, "unknown topology '" + name + "'");
  }
}

void check_routing(const std::string& name, const text::Where& at) {
  static const std::set<std::string> known_routings{"auto", "minimal", "xy",
                                                    "updown"};
  if (!known_routings.count(name)) {
    fail(at, "unknown routing '" + name +
                 "' (expected auto | minimal | xy | updown)");
  }
}

void check_pattern(const std::string& name, const text::Where& at) {
  const std::string app = app_benchmark_of(name);
  if (app.empty() && !synthetic_pattern(name)) {
    fail(at, "unknown pattern '" + name + "'");
  }
  if (!app.empty() && !workload::is_benchmark(app)) {
    fail(at, "unknown app benchmark '" + app + "'");
  }
}

void check_flow(const std::string& name, const text::Where& at) {
  try {
    link::parse_flow_control(name);  // the link layer owns the names
  } catch (const Error& e) {
    fail(at, e.what());
  }
}

std::uint64_t derive_seed(std::uint64_t spec_seed, std::uint64_t salt) {
  // splitmix64 finalizer over the combined words — the same mixing the
  // Rng uses to expand a seed, so nearby (seed, salt) pairs decorrelate.
  std::uint64_t z = spec_seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t SweepPoint::num_switches() const {
  if (topology == "mesh" || topology == "torus" || topology == "cmesh") {
    return width * height;
  }
  if (topology == "star") return width + 1;  // hub + leaves
  if (topology == "spidergon") return width + (width % 2);  // even count
  return width;                                             // ring
}

topology::Topology SweepPoint::build_topology() const {
  // Fail fast on absurd sizes instead of grinding through a multi-GB
  // allocation: 4096 switches is far beyond any single-SoC NoC.
  const std::size_t n = num_switches();
  require(n >= 1, "sweep point " + label() + ": empty topology");
  require(n <= 4096, "sweep point " + label() + ": " + std::to_string(n) +
                         " switches exceeds the 4096-switch cap");
  if (topology == "cmesh") {
    return topology::make_cmesh(width, height, concentration);
  }
  const auto plan = topology::NiPlan::uniform(n, 1, 1);
  if (topology == "mesh") return topology::make_mesh(width, height, plan);
  if (topology == "torus") return topology::make_torus(width, height, plan);
  if (topology == "ring") return topology::make_ring(width, plan);
  if (topology == "star") return topology::make_star(width, plan);
  if (topology == "spidergon") {
    return topology::make_spidergon(width + (width % 2), plan);
  }
  throw Error("sweep point: unknown topology '" + topology + "'");
}

std::string SweepPoint::pattern_label() const {
  if (!app.empty()) return "app:" + app;
  return traffic::pattern_name(traffic.pattern);
}

std::string SweepPoint::label() const {
  std::ostringstream os;
  os << topology << "_" << width;
  if (topology == "mesh" || topology == "torus" || topology == "cmesh") {
    os << "x" << height;
  }
  if (topology == "cmesh") os << "c" << concentration;
  os << "_f" << net.flit_width << "_q" << net.output_fifo_depth << "_"
     << (app.empty() ? traffic::pattern_name(traffic.pattern) : app.c_str())
     << "_r" << fmt_double(traffic.injection_rate);
  if (traffic.burstiness > 0) os << "_b" << fmt_double(traffic.burstiness);
  if (warmup > 0) os << "_w" << warmup;
  if (net.vcs > 1) os << "_v" << net.vcs;
  if (net.flow != link::FlowControl::kAckNack) {
    os << "_" << link::flow_control_name(net.flow);
  }
  return os.str();
}

std::size_t SweepSpec::grid_size() const {
  return topologies.size() * widths.size() * heights.size() *
         flit_widths.size() * fifo_depths.size() * vcss.size() *
         flows.size() * patterns.size() * warmups.size() *
         burstinesses.size() * injection_rates.size();
}

std::size_t SweepSpec::num_points() const {
  const std::size_t grid = grid_size();
  return (samples != 0 && samples < grid) ? samples : grid;
}

void SweepSpec::validate() const {
  auto non_empty = [](const char* axis, std::size_t n) {
    require(n != 0, std::string("sweep: axis '") + axis + "' is empty");
  };
  non_empty("topology", topologies.size());
  non_empty("width", widths.size());
  non_empty("height", heights.size());
  non_empty("flit_width", flit_widths.size());
  non_empty("fifo_depth", fifo_depths.size());
  non_empty("vcs", vcss.size());
  non_empty("flow", flows.size());
  non_empty("pattern", patterns.size());
  non_empty("warmup", warmups.size());
  non_empty("burstiness", burstinesses.size());
  non_empty("injection_rate", injection_rates.size());
  const text::Where at{"sweep", 0};
  for (const auto& t : topologies) check_topology(t, at);
  check_routing(routing, at);
  check_scheduler(scheduler, at);
  for (const std::size_t v : vcss) {
    require(v >= 1 && v <= link::kMaxVcs,
            "sweep: vcs must be in [1, " + std::to_string(link::kMaxVcs) +
                "]");
  }
  for (const auto& f : flows) check_flow(f, at);
  for (const auto& p : patterns) check_pattern(p, at);
  for (const double b : burstinesses) {
    require(b >= 0.0 && b < 1.0, "sweep: burstiness must be in [0, 1)");
  }
  for (const std::size_t w : warmups) {
    require(w < sim_cycles,
            "sweep: warmup must leave a non-empty measurement window");
  }
  require(sim_cycles > 0, "sweep: cycles must be > 0");
  require(threads >= 1, "sweep: threads must be >= 1");
  require(partitions >= 1, "sweep: partitions must be >= 1");
  require(concentration >= 1, "sweep: concentration must be >= 1");
}

std::vector<std::size_t> SweepSpec::campaign_grid_indices() const {
  // Campaign index -> grid index. A sampled campaign draws a deterministic
  // sorted subset of distinct grid cells via Floyd's algorithm, so a
  // point's identity (and therefore its seeds) depends only on the spec,
  // never on how many points run or in what order.
  const std::size_t grid = grid_size();
  if (samples == 0 || samples >= grid) {
    std::vector<std::size_t> all(grid);
    for (std::size_t i = 0; i < grid; ++i) all[i] = i;
    return all;
  }
  Rng rng(derive_seed(seed, 0x5A5A5A5Aull));
  std::set<std::size_t> chosen;
  for (std::size_t j = grid - samples; j < grid; ++j) {
    const std::size_t t = rng.next_below(j + 1);
    chosen.insert(chosen.count(t) ? j : t);
  }
  return std::vector<std::size_t>(chosen.begin(), chosen.end());
}

SweepPoint SweepSpec::resolve_grid_point(std::size_t grid_index,
                                         std::size_t campaign_index) const {
  // Decode mixed-radix: injection rate innermost, topology outermost.
  std::size_t rest = grid_index;
  auto take = [&rest](std::size_t radix) {
    const std::size_t digit = rest % radix;
    rest /= radix;
    return digit;
  };
  const std::size_t rate_i = take(injection_rates.size());
  const std::size_t burst_i = take(burstinesses.size());
  const std::size_t warmup_i = take(warmups.size());
  const std::size_t pattern_i = take(patterns.size());
  const std::size_t flow_i = take(flows.size());
  const std::size_t vcs_i = take(vcss.size());
  const std::size_t fifo_i = take(fifo_depths.size());
  const std::size_t flit_i = take(flit_widths.size());
  const std::size_t height_i = take(heights.size());
  const std::size_t width_i = take(widths.size());
  const std::size_t topo_i = take(topologies.size());

  SweepPoint p;
  p.index = campaign_index;
  p.topology = topologies[topo_i];
  p.width = widths[width_i];
  p.height = heights[height_i];
  if (p.topology == "cmesh") p.concentration = concentration;
  p.sim_cycles = sim_cycles;
  p.drain_cycles = drain_cycles;
  p.target_mhz = target_mhz;
  // Within-point parallelism: results are invariant to both knobs, so
  // they never enter the point's identity (labels, seeds, exports).
  p.net.partitions = partitions;
  p.net.sim_threads = threads;

  p.net.flit_width = flit_widths[flit_i];
  p.net.output_fifo_depth = fifo_depths[fifo_i];
  p.net.vcs = vcss[vcs_i];
  p.net.flow = link::parse_flow_control(flows[flow_i]);
  p.net.input_fifo_depth = 2;
  p.net.max_burst = std::max<std::size_t>(p.net.max_burst, max_burst);
  p.net.target_window = 1 << 12;
  if (routing == "minimal") {
    p.net.routing = topology::RoutingAlgorithm::kShortestPath;
  } else if (routing == "xy") {
    p.net.routing = topology::RoutingAlgorithm::kXY;
  } else if (routing == "updown") {
    p.net.routing = topology::RoutingAlgorithm::kUpDown;
  } else {  // "auto": the seed rule (cmesh is a mesh with fatter tiles)
    p.net.routing = p.topology == "mesh" || p.topology == "cmesh"
                        ? topology::RoutingAlgorithm::kXY
                        : topology::RoutingAlgorithm::kUpDown;
  }
  p.net.scheduler = scheduler == "full" ? sim::Scheduler::kFull
                                        : sim::Scheduler::kTimeLeap;
  // Seeds derive from the *grid* cell, never from scheduling order:
  // bit-identical results for any --jobs value.
  p.net.seed = derive_seed(seed, grid_index * 2 + 0);

  const std::string app = app_benchmark_of(patterns[pattern_i]);
  if (app.empty()) {
    p.traffic.pattern = *synthetic_pattern(patterns[pattern_i]);
  } else {
    // Benchmark traffic: the weight matrix needs the built topology, so
    // run_point derives it there (benchmark_weights is deterministic).
    p.app = app;
    p.traffic.pattern = traffic::Pattern::kWeighted;
  }
  p.warmup = warmups[warmup_i];
  p.traffic.burstiness = burstinesses[burst_i];
  p.traffic.injection_rate = injection_rates[rate_i];
  p.traffic.read_fraction = read_fraction;
  p.traffic.min_burst = 1;
  p.traffic.max_burst = max_burst;
  p.traffic.seed = derive_seed(seed, grid_index * 2 + 1);
  return p;
}

SweepPoint SweepSpec::point(std::size_t i) const {
  validate();
  require(i < num_points(), "sweep: point index out of range");
  return resolve_grid_point(campaign_grid_indices()[i], i);
}

std::vector<SweepPoint> SweepSpec::points() const {
  validate();
  const auto grid_indices = campaign_grid_indices();
  std::vector<SweepPoint> out;
  out.reserve(grid_indices.size());
  for (std::size_t i = 0; i < grid_indices.size(); ++i) {
    out.push_back(resolve_grid_point(grid_indices[i], i));
  }
  return out;
}

SweepSpec parse_sweep(const std::string& text) {
  SweepSpec spec;
  text::LineReader in(text, "sweep");
  // Axis directives replace the default on first sight so a parsed spec
  // holds exactly the listed values.
  while (in.next()) {
    const auto& tokens = in.tokens();
    const text::Where at = in.at();
    const std::string& key = tokens[0];

    auto need = [&](std::size_t n) {
      if (tokens.size() != n) {
        fail(at, "'" + key + "' expects " + std::to_string(n - 1) +
                     " argument(s)");
      }
    };
    auto need_values = [&]() {
      if (tokens.size() < 2) fail(at, "'" + key + "' expects values");
    };
    auto u64 = [&](std::uint64_t lo, std::uint64_t hi) {
      need(2);
      return parse_u64(tokens[1], at, lo, hi);
    };
    auto f64 = [&](double lo, double hi) {
      need(2);
      return parse_f64(tokens[1], at, lo, hi);
    };
    auto u64_list = [&](std::uint64_t lo, std::uint64_t hi) {
      need_values();
      std::vector<std::size_t> values;
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        values.push_back(parse_u64(tokens[t], at, lo, hi));
      }
      return values;
    };
    auto f64_list = [&](double lo, double hi) {
      need_values();
      std::vector<double> values;
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        values.push_back(parse_f64(tokens[t], at, lo, hi));
      }
      return values;
    };

    if (key == "sweep") {
      need(2);
      spec.name = tokens[1];
    } else if (key == "seed") {
      spec.seed = u64(0, text::kMaxU64);
    } else if (key == "cycles") {
      spec.sim_cycles = u64(1, text::kMaxU64);
    } else if (key == "drain") {
      spec.drain_cycles = u64(0, text::kMaxU64);
    } else if (key == "samples") {
      spec.samples = u64(0, text::kMaxU64);
    } else if (key == "target_mhz") {
      spec.target_mhz = f64(text::kMinTargetMhz, text::kMaxTargetMhz);
    } else if (key == "read_fraction") {
      spec.read_fraction = f64(0.0, 1.0);
    } else if (key == "max_burst") {
      spec.max_burst = static_cast<std::uint32_t>(u64(1, text::kMaxBurst));
    } else if (key == "routing") {
      need(2);
      check_routing(tokens[1], at);
      spec.routing = tokens[1];
    } else if (key == "scheduler") {
      need(2);
      check_scheduler(tokens[1], at);
      spec.scheduler = tokens[1];
    } else if (key == "threads") {
      spec.threads = u64(1, text::kMaxThreads);
    } else if (key == "partitions") {
      spec.partitions = u64(1, text::kMaxPartitions);
    } else if (key == "concentration") {
      spec.concentration = u64(1, text::kMaxConcentration);
    } else if (key == "topology") {
      need_values();
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        check_topology(tokens[t], at);
      }
      spec.topologies.assign(tokens.begin() + 1, tokens.end());
    } else if (key == "width") {
      spec.widths = u64_list(1, text::kMaxDimension);
    } else if (key == "height") {
      spec.heights = u64_list(1, text::kMaxDimension);
    } else if (key == "flit_width") {
      spec.flit_widths = u64_list(1, text::kMaxFlitWidth);
    } else if (key == "fifo_depth") {
      spec.fifo_depths = u64_list(1, text::kMaxFifoDepth);
    } else if (key == "vcs") {
      spec.vcss = u64_list(1, link::kMaxVcs);
    } else if (key == "flow") {
      need_values();
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        check_flow(tokens[t], at);
      }
      spec.flows.assign(tokens.begin() + 1, tokens.end());
    } else if (key == "pattern" || key == "traffic") {
      // `traffic` is an alias so campaign specs can read
      // `traffic app:mpeg4`; the canonical form writes `pattern`.
      need_values();
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        check_pattern(tokens[t], at);
      }
      spec.patterns.assign(tokens.begin() + 1, tokens.end());
    } else if (key == "warmup") {
      spec.warmups = u64_list(0, text::kMaxU64);
    } else if (key == "burstiness") {
      spec.burstinesses = f64_list(0.0, text::kBelowOne);
    } else if (key == "injection_rate") {
      spec.injection_rates = f64_list(0.0, 1.0);
    } else {
      fail(at, "unknown directive '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

SweepSpec load_sweep(const std::string& path) {
  return parse_sweep(text::read_text_file(path, "load_sweep"));
}

std::string write_sweep(const SweepSpec& spec) {
  std::ostringstream os;
  os << "# xsweep campaign specification\n";
  os << "sweep " << spec.name << "\n";
  os << "seed " << spec.seed << "\n";
  os << "cycles " << spec.sim_cycles << "\n";
  os << "drain " << spec.drain_cycles << "\n";
  os << "samples " << spec.samples << "\n";
  os << "target_mhz " << fmt_double(spec.target_mhz) << "\n";
  os << "read_fraction " << fmt_double(spec.read_fraction) << "\n";
  os << "max_burst " << spec.max_burst << "\n";
  os << "routing " << spec.routing << "\n";
  os << "scheduler " << spec.scheduler << "\n";
  // Off-default only: legacy specs keep their canonical bytes, and the
  // knobs are pure throughput controls with no effect on results.
  if (spec.threads != 1) os << "threads " << spec.threads << "\n";
  if (spec.partitions != 1) os << "partitions " << spec.partitions << "\n";
  if (spec.concentration != 4) {
    os << "concentration " << spec.concentration << "\n";
  }
  auto write_list = [&os](const char* key, const auto& values) {
    os << key;
    for (const auto& v : values) os << " " << v;
    os << "\n";
  };
  write_list("topology", spec.topologies);
  write_list("width", spec.widths);
  write_list("height", spec.heights);
  write_list("flit_width", spec.flit_widths);
  write_list("fifo_depth", spec.fifo_depths);
  write_list("vcs", spec.vcss);
  write_list("flow", spec.flows);
  write_list("pattern", spec.patterns);
  write_list("warmup", spec.warmups);
  auto write_f64_list = [&os](const char* key, const auto& values) {
    os << key;
    for (const double v : values) os << " " << fmt_double(v);
    os << "\n";
  };
  write_f64_list("burstiness", spec.burstinesses);
  write_f64_list("injection_rate", spec.injection_rates);
  return os.str();
}

void save_sweep(const SweepSpec& spec, const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "save_sweep: cannot open " + path);
  out << write_sweep(spec);
}

}  // namespace xpl::sweep
