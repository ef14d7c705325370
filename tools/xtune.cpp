// xtune — closed-loop design-space auto-tuning.
//
// Reads a tuning specification (src/tune/spec.hpp grammar; docs/FORMATS.md
// §4 is the reference), searches the declared axes with successive halving
// + hill climbing against the weighted objective, optionally
// bisection-searches the winner's saturation injection rate, and emits the
// Pareto-optimal configurations as ready-to-run .noc files. The whole run
// is deterministic at any --jobs: same spec, same trajectory, same winner.
// Usage:
//
//   xtune <spec.tune> [options]
//     --jobs N                worker threads (default: hardware concurrency)
//     --out-dir <dir>         emit winner + Pareto configs as .noc files
//     --trajectory-csv <path> write the tuning trajectory as CSV
//     --trajectory-json <path> write the trajectory + verdict as JSON
//     --verify                re-parse the winner's emitted .noc text and
//                             re-simulate it; fail unless the metrics
//                             reproduce (the emission-fidelity check CI runs)
//     --print-spec            echo the canonical specification and exit
//     --quiet                 suppress per-evaluation progress lines
//
// Example:
//   xtune examples/mesh_tune.tune --jobs 8 --out-dir tuned --verify
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "src/compiler/spec_io.hpp"
#include "src/sweep/runner.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/tune/spec.hpp"
#include "src/tune/tuner.hpp"
#include "src/workload/benchmarks.hpp"
#include "tools/flags.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <spec.tune> [--jobs N] [--out-dir <dir>]\n"
               "          [--trajectory-csv <path>] [--trajectory-json "
               "<path>]\n"
               "          [--verify] [--print-spec] [--quiet]\n",
               argv0);
}

/// `--verify`: the emitted-spec fidelity check. Round-trips the winner
/// through write_spec/parse_spec text, rebuilds the network from the
/// *parsed* spec (injecting only what a .noc deliberately omits: RNG seed
/// and the NI/slave timing knobs), re-simulates, and compares against the
/// tuner's recorded metrics. A mismatch means the .noc format dropped a
/// parameter that matters — exactly the regression this guards against.
bool verify_emission(const xpl::tune::TuneSpec& tspec,
                     const xpl::tune::TuneEval& winner) {
  using namespace xpl;
  const std::size_t config = winner.config;
  const std::string text =
      compiler::write_spec(tune::to_noc_spec(tspec, config));
  compiler::NocSpec parsed = compiler::parse_spec(text);

  const sweep::SweepPoint p = tspec.config_point(config);
  parsed.net.seed = p.net.seed;
  parsed.net.max_outstanding = p.net.max_outstanding;
  parsed.net.slave_latency = p.net.slave_latency;
  parsed.net.bit_error_rate = p.net.bit_error_rate;

  const compiler::XpipesCompiler xpipes;
  const auto network = xpipes.build_simulation(parsed);
  traffic::TrafficConfig traffic_cfg = p.traffic;
  if (!p.app.empty()) {
    traffic_cfg.weights = workload::benchmark_weights(
        workload::benchmark(p.app), parsed.topo);
  }
  traffic::TrafficDriver driver(*network, traffic_cfg);
  driver.run(p.sim_cycles);
  network->run_until_quiescent(p.drain_cycles);
  const auto stats =
      traffic::collect_run(*network, p.sim_cycles, p.warmup);

  auto close = [](double got, double want) {
    const double tol = 1e-9 * std::max(1.0, std::fabs(want));
    return std::fabs(got - want) <= tol;
  };
  const auto& want = winner.result;
  if (stats.transactions == want.transactions &&
      close(stats.latency.mean, want.avg_latency_cycles) &&
      close(stats.throughput, want.throughput_tpc)) {
    std::printf("verify: %s re-simulates identically "
                "(%llu transactions, lat %.6g, thru %.6g)\n",
                tspec.config_label(config).c_str(),
                static_cast<unsigned long long>(stats.transactions),
                stats.latency.mean, stats.throughput);
    return true;
  }
  std::fprintf(stderr,
               "verify FAILED for %s:\n"
               "  transactions %llu vs %llu\n"
               "  avg latency  %.12g vs %.12g\n"
               "  throughput   %.12g vs %.12g\n",
               tspec.config_label(config).c_str(),
               static_cast<unsigned long long>(stats.transactions),
               static_cast<unsigned long long>(want.transactions),
               stats.latency.mean, want.avg_latency_cycles,
               stats.throughput, want.throughput_tpc);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpl;
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }

  std::string spec_path;
  std::string out_dir;
  std::string csv_path;
  std::string json_path;
  std::size_t jobs = 0;
  bool verify = false;
  bool print_spec = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(
          cli::flag_u64("xtune", arg, next(), 1, text::kMaxThreads));
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--trajectory-csv") {
      csv_path = next();
    } else if (arg == "--trajectory-json") {
      json_path = next();
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (spec_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    const tune::TuneSpec spec = tune::load_tune(spec_path);
    if (print_spec) {
      std::fputs(tune::write_tune(spec).c_str(), stdout);
      return 0;
    }

    sweep::SweepRunner runner(jobs);
    std::printf("tune '%s': %zu config(s), budget %zu, %zu worker(s)\n",
                spec.name.c_str(), spec.num_configs(), spec.budget,
                runner.jobs());

    tune::Tuner tuner(runner);
    if (!quiet) {
      tuner.on_eval = [&](const tune::TuneEval& ev) {
        const std::string status =
            ev.result.ok ? "ok" : "FAILED: " + ev.result.error;
        std::printf("[%zu/%zu] %-10s %-24s cyc %-6zu rate %-7.4g %s\n",
                    ev.eval + 1, spec.budget, ev.stage.c_str(),
                    spec.config_label(ev.config).c_str(), ev.cycles,
                    ev.result.point.traffic.injection_rate, status.c_str());
      };
    }

    const tune::TuneReport report = tuner.run(spec);
    std::printf("\n%s", report.summary().c_str());

    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
        return 1;
      }
      out << report.trajectory_csv();
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      out << report.trajectory_json();
    }

    if (report.best == tune::TuneReport::npos) {
      std::fprintf(stderr,
                   "xtune: no configuration completed at full fidelity\n");
      return 1;
    }

    if (!out_dir.empty()) {
      // Winner + Pareto front, config-deduped, as ready-to-run .noc files.
      std::filesystem::create_directories(out_dir);
      std::set<std::size_t> configs{report.winner().config};
      for (const std::size_t i : report.pareto) {
        configs.insert(report.trajectory[i].config);
      }
      for (const std::size_t c : configs) {
        const compiler::NocSpec noc = tune::to_noc_spec(spec, c);
        const std::string path = out_dir + "/" + noc.name + ".noc";
        compiler::save_spec(noc, path);
        std::printf("emitted %s%s\n", path.c_str(),
                    c == report.winner().config ? "  (winner)" : "");
      }
    }

    if (verify && !verify_emission(spec, report.winner())) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xtune: %s\n", e.what());
    return 1;
  }
}
