#include "src/tune/spec.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/text.hpp"
#include "src/link/flow.hpp"
#include "src/sweep/format.hpp"

namespace xpl::tune {

namespace {

using text::fail;
using text::parse_f64;
using text::parse_u64;

// The single-line value rules, written once: parse_tune reports them at
// their line, validate() of an in-memory spec at line 0.

void check_rate(double rate, const text::Where& at) {
  if (!(rate > 0.0 && rate <= 1.0)) fail(at, "rate must be in (0, 1]");
}

void check_objective(const Objective& o, const text::Where& at) {
  if (!(o.latency >= 0 && o.p95 >= 0 && o.throughput >= 0 && o.area >= 0 &&
        o.power >= 0)) {
    fail(at, "objective weights must be >= 0");
  }
  if (!(o.latency + o.p95 + o.throughput + o.area + o.power > 0)) {
    fail(at, "objective must have at least one positive weight");
  }
}

void check_saturation(const SaturationConfig& s, const text::Where& at) {
  if (!(s.lo > 0 && s.lo < s.hi && s.hi <= 1.0)) {
    fail(at, "saturation bracket must satisfy 0 < lo < hi <= 1");
  }
  if (!(s.rel_tol > 0 && s.rel_tol < 1)) {
    fail(at, "saturation tolerance must be in (0, 1)");
  }
}

}  // namespace

double Objective::score(const sweep::SweepResult& r) const {
  if (!r.ok) return std::numeric_limits<double>::infinity();
  return latency * r.avg_latency_cycles + p95 * r.p95_latency_cycles -
         throughput * r.throughput_tpc + area * r.area_mm2 +
         power * r.power_mw;
}

void TuneSpec::validate() const {
  const text::Where at{"tune", 0};
  sweep::check_topology(topology, at);
  sweep::check_pattern(pattern, at);
  require(!fifo_depths.empty(), "tune: axis 'fifo_depth' is empty");
  require(!vcss.empty(), "tune: axis 'vcs' is empty");
  require(!flows.empty(), "tune: axis 'flow' is empty");
  require(!routings.empty(), "tune: axis 'routing' is empty");
  for (const std::size_t v : vcss) {
    require(v >= 1 && v <= link::kMaxVcs,
            "tune: vcs must be in [1, " + std::to_string(link::kMaxVcs) +
                "]");
  }
  for (const auto& f : flows) sweep::check_flow(f, at);
  for (const auto& r : routings) sweep::check_routing(r, at);
  check_rate(rate, at);
  require(burstiness >= 0.0 && burstiness < 1.0,
          "tune: burstiness must be in [0, 1)");
  require(sim_cycles > 0, "tune: cycles must be > 0");
  require(warmup < sim_cycles,
          "tune: warmup must leave a non-empty measurement window");
  require(budget > 0, "tune: budget must be > 0");
  check_objective(objective, at);
  if (saturation.enabled) check_saturation(saturation, at);
}

std::size_t TuneSpec::num_configs() const {
  return fifo_depths.size() * vcss.size() * flows.size() * routings.size();
}

TuneSpec::ConfigIdx TuneSpec::config_indices(std::size_t c) const {
  require(c < num_configs(), "tune: config id out of range");
  ConfigIdx idx;
  idx.fifo = c % fifo_depths.size();
  c /= fifo_depths.size();
  idx.vcs = c % vcss.size();
  c /= vcss.size();
  idx.flow = c % flows.size();
  c /= flows.size();
  idx.routing = c;
  return idx;
}

std::size_t TuneSpec::config_id(const ConfigIdx& idx) const {
  return ((idx.routing * flows.size() + idx.flow) * vcss.size() + idx.vcs) *
             fifo_depths.size() +
         idx.fifo;
}

sweep::SweepPoint TuneSpec::config_point(std::size_t c) const {
  const ConfigIdx idx = config_indices(c);
  // A one-point SweepSpec per config reuses the sweep resolver end to
  // end (app placement, routing rules, seed derivation). Every config
  // resolves grid cell 0, so all candidates share the same derived
  // network/traffic seeds: paired evaluation under identical traffic.
  sweep::SweepSpec s;
  s.name = name;
  s.seed = seed;
  s.sim_cycles = sim_cycles;
  s.drain_cycles = drain_cycles;
  s.target_mhz = target_mhz;
  s.read_fraction = read_fraction;
  s.max_burst = max_burst;
  s.routing = routings[idx.routing];
  s.topologies = {topology};
  s.widths = {width};
  s.heights = {height};
  s.flit_widths = {flit_width};
  s.fifo_depths = {fifo_depths[idx.fifo]};
  s.vcss = {vcss[idx.vcs]};
  s.flows = {flows[idx.flow]};
  s.patterns = {pattern};
  s.warmups = {warmup};
  s.burstinesses = {burstiness};
  s.injection_rates = {rate};
  return s.point(0);
}

std::string TuneSpec::config_label(std::size_t c) const {
  const ConfigIdx idx = config_indices(c);
  std::ostringstream os;
  os << "q" << fifo_depths[idx.fifo] << "_v" << vcss[idx.vcs] << "_"
     << flows[idx.flow] << "_" << routings[idx.routing];
  return os.str();
}

TuneSpec parse_tune(const std::string& text) {
  TuneSpec spec;
  text::LineReader in(text, "tune");
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
    auto u64 = [&](std::uint64_t lo, std::uint64_t hi) {
      need(2);
      return parse_u64(tokens[1], at, lo, hi);
    };
    auto f64 = [&](double lo, double hi) {
      need(2);
      return parse_f64(tokens[1], at, lo, hi);
    };

    if (key == "tune") {
      need(2);
      spec.name = tokens[1];
    } else if (key == "seed") {
      spec.seed = u64(0, text::kMaxU64);
    } else if (key == "cycles") {
      spec.sim_cycles = u64(1, text::kMaxU64);
    } else if (key == "drain") {
      spec.drain_cycles = u64(0, text::kMaxU64);
    } else if (key == "warmup") {
      spec.warmup = u64(0, text::kMaxU64);
    } else if (key == "budget") {
      spec.budget = u64(1, text::kMaxU64);
    } else if (key == "rate") {
      spec.rate = f64(0.0, 1.0);
      check_rate(spec.rate, at);
    } else if (key == "burstiness") {
      spec.burstiness = f64(0.0, text::kBelowOne);
    } else if (key == "read_fraction") {
      spec.read_fraction = f64(0.0, 1.0);
    } else if (key == "max_burst") {
      spec.max_burst = static_cast<std::uint32_t>(u64(1, text::kMaxBurst));
    } else if (key == "target_mhz") {
      spec.target_mhz = f64(text::kMinTargetMhz, text::kMaxTargetMhz);
    } else if (key == "objective") {
      if (tokens.size() < 3 || tokens.size() % 2 == 0) {
        fail(at, "'objective' expects key/weight pairs");
      }
      spec.objective = Objective{0, 0, 0, 0, 0};
      for (std::size_t t = 1; t < tokens.size(); t += 2) {
        const double w = parse_f64(tokens[t + 1], at, 0.0, text::kMaxF64);
        if (tokens[t] == "latency") {
          spec.objective.latency = w;
        } else if (tokens[t] == "p95") {
          spec.objective.p95 = w;
        } else if (tokens[t] == "throughput") {
          spec.objective.throughput = w;
        } else if (tokens[t] == "area") {
          spec.objective.area = w;
        } else if (tokens[t] == "power") {
          spec.objective.power = w;
        } else {
          fail(at, "unknown objective key '" + tokens[t] +
                       "' (expected latency | p95 | throughput | area "
                       "| power)");
        }
      }
      check_objective(spec.objective, at);
    } else if (key == "topology") {
      need(2);
      sweep::check_topology(tokens[1], at);
      spec.topology = tokens[1];
    } else if (key == "width") {
      spec.width = u64(1, text::kMaxDimension);
    } else if (key == "height") {
      spec.height = u64(1, text::kMaxDimension);
    } else if (key == "flit_width") {
      spec.flit_width = u64(1, text::kMaxFlitWidth);
    } else if (key == "pattern") {
      need(2);
      sweep::check_pattern(tokens[1], at);
      spec.pattern = tokens[1];
    } else if (key == "search") {
      if (tokens.size() < 3) {
        fail(at, "'search' expects an axis name and values");
      }
      const std::string& axis = tokens[1];
      if (axis == "fifo_depth") {
        spec.fifo_depths.clear();
        for (std::size_t t = 2; t < tokens.size(); ++t) {
          spec.fifo_depths.push_back(
              parse_u64(tokens[t], at, 1, text::kMaxFifoDepth));
        }
      } else if (axis == "vcs") {
        spec.vcss.clear();
        for (std::size_t t = 2; t < tokens.size(); ++t) {
          spec.vcss.push_back(parse_u64(tokens[t], at, 1, link::kMaxVcs));
        }
      } else if (axis == "flow") {
        for (std::size_t t = 2; t < tokens.size(); ++t) {
          sweep::check_flow(tokens[t], at);
        }
        spec.flows.assign(tokens.begin() + 2, tokens.end());
      } else if (axis == "routing") {
        for (std::size_t t = 2; t < tokens.size(); ++t) {
          sweep::check_routing(tokens[t], at);
        }
        spec.routings.assign(tokens.begin() + 2, tokens.end());
      } else {
        fail(at, "unknown search axis '" + axis +
                     "' (expected fifo_depth | vcs | flow | routing)");
      }
    } else if (key == "saturation") {
      need(4);
      spec.saturation.enabled = true;
      spec.saturation.lo = parse_f64(tokens[1], at, 0.0, 1.0);
      spec.saturation.hi = parse_f64(tokens[2], at, 0.0, 1.0);
      spec.saturation.rel_tol = parse_f64(tokens[3], at, 0.0, 1.0);
      check_saturation(spec.saturation, at);
    } else {
      fail(at, "unknown directive '" + key + "'");
    }
  }
  spec.validate();  // the one cross-line rule: warmup < cycles
  return spec;
}

TuneSpec load_tune(const std::string& path) {
  return parse_tune(text::read_text_file(path, "load_tune"));
}

std::string write_tune(const TuneSpec& spec) {
  using sweep::fmt_double;
  std::ostringstream os;
  os << "# xtune specification\n";
  os << "tune " << spec.name << "\n";
  os << "seed " << spec.seed << "\n";
  os << "cycles " << spec.sim_cycles << "\n";
  os << "drain " << spec.drain_cycles << "\n";
  os << "warmup " << spec.warmup << "\n";
  os << "budget " << spec.budget << "\n";
  os << "rate " << fmt_double(spec.rate) << "\n";
  os << "burstiness " << fmt_double(spec.burstiness) << "\n";
  os << "read_fraction " << fmt_double(spec.read_fraction) << "\n";
  os << "max_burst " << spec.max_burst << "\n";
  os << "target_mhz " << fmt_double(spec.target_mhz) << "\n";
  os << "objective latency " << fmt_double(spec.objective.latency)
     << " p95 " << fmt_double(spec.objective.p95) << " throughput "
     << fmt_double(spec.objective.throughput) << " area "
     << fmt_double(spec.objective.area) << " power "
     << fmt_double(spec.objective.power) << "\n";
  os << "topology " << spec.topology << "\n";
  os << "width " << spec.width << "\n";
  os << "height " << spec.height << "\n";
  os << "flit_width " << spec.flit_width << "\n";
  os << "pattern " << spec.pattern << "\n";
  auto write_search = [&os](const char* axis, const auto& values) {
    os << "search " << axis;
    for (const auto& v : values) os << " " << v;
    os << "\n";
  };
  write_search("fifo_depth", spec.fifo_depths);
  write_search("vcs", spec.vcss);
  write_search("flow", spec.flows);
  write_search("routing", spec.routings);
  if (spec.saturation.enabled) {
    os << "saturation " << fmt_double(spec.saturation.lo) << " "
       << fmt_double(spec.saturation.hi) << " "
       << fmt_double(spec.saturation.rel_tol) << "\n";
  }
  return os.str();
}

void save_tune(const TuneSpec& spec, const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "save_tune: cannot open " + path);
  out << write_tune(spec);
}

}  // namespace xpl::tune
