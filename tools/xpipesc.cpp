// xpipesc — the xpipesCompiler as a command-line tool.
//
// The original artifact was exactly this: a compiler that reads a NoC
// specification and produces the component instances. Usage:
//
//   xpipesc <spec.noc> [options]
//     --emit <dir>         write the synthesis view (SystemC) to <dir>
//     --estimate <MHz>     print the per-instance synthesis report
//     --simulate <cycles>  run uniform random traffic and print stats
//     --rate <r>           injection rate for --simulate (default 0.03)
//     --optimize-buffers   run the buffer-sizing pass first
//     --print-spec         echo the canonical specification and exit
//     --sim-threads <n>    partition the kernel across n threads for
//                          --simulate (bit-identical results; implies
//                          n partitions unless the spec sets its own)
//
// Example:
//   xpipesc my_soc.noc --optimize-buffers --estimate 900 --emit out/
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/compiler/compiler.hpp"
#include "src/compiler/spec_io.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "tools/flags.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <spec.noc> [--emit <dir>] [--estimate <MHz>]\n"
               "          [--simulate <cycles>] [--rate <r>]\n"
               "          [--optimize-buffers] [--print-spec]\n"
               "          [--sim-threads <n>]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpl;
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }

  std::string spec_path;
  std::string emit_dir;
  double estimate_mhz = 0.0;
  std::size_t simulate_cycles = 0;
  double rate = 0.03;
  bool optimize_buffers = false;
  bool print_spec = false;
  std::size_t sim_threads = 0;  // 0 = use the spec's sim_threads

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--emit") {
      emit_dir = next();
    } else if (arg == "--estimate") {
      estimate_mhz = cli::flag_f64("xpipesc", arg, next(),
                                   text::kMinTargetMhz, text::kMaxTargetMhz);
    } else if (arg == "--simulate") {
      simulate_cycles = static_cast<std::size_t>(
          cli::flag_u64("xpipesc", arg, next(), 1, text::kMaxU64));
    } else if (arg == "--rate") {
      rate = cli::flag_f64("xpipesc", arg, next(), 0.0, 1.0);
    } else if (arg == "--optimize-buffers") {
      optimize_buffers = true;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--sim-threads") {
      sim_threads = static_cast<std::size_t>(
          cli::flag_u64("xpipesc", arg, next(), 1, text::kMaxThreads));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      spec_path = arg;
    }
  }
  if (spec_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    compiler::NocSpec spec = compiler::load_spec(spec_path);
    if (sim_threads != 0) {
      spec.net.sim_threads = sim_threads;
      // A thread count without partitions would be idle hands; default
      // to one partition per thread when the spec didn't choose.
      if (spec.net.partitions <= 1) spec.net.partitions = sim_threads;
    }
    compiler::XpipesCompiler xpipes;

    if (print_spec) {
      std::fputs(compiler::write_spec(spec).c_str(), stdout);
      return 0;
    }

    std::printf("xpipesc: '%s' — %zu switches, %zu links, %zu NIs\n",
                spec.name.c_str(), spec.topo.num_switches(),
                spec.topo.num_links(), spec.topo.num_nis());

    if (optimize_buffers) {
      const auto depths = xpipes.optimize_buffer_sizes(spec);
      std::printf("buffer sizing:");
      for (const auto d : depths) std::printf(" %zu", d);
      std::printf("\n");
    }

    if (estimate_mhz > 0) {
      const auto report = xpipes.estimate(spec, estimate_mhz);
      std::printf("\nsynthesis report @%.0f MHz:\n", estimate_mhz);
      std::printf("  %-16s %-14s %-10s %-10s %-10s\n", "instance", "kind",
                  "area_mm2", "power_mW", "fmax_MHz");
      for (const auto& inst : report.instances) {
        std::printf("  %-16s %-14s %-10.4f %-10.2f %-10.0f%s\n",
                    inst.name.c_str(), inst.kind.c_str(),
                    inst.estimate.area_mm2, inst.estimate.power_mw,
                    inst.estimate.fmax_mhz,
                    inst.estimate.feasible ? "" : "  INFEASIBLE");
      }
      std::printf("  total: %.3f mm2, %.1f mW, clock ceiling %.0f MHz\n",
                  report.total_area_mm2, report.total_power_mw,
                  report.min_fmax_mhz);
    }

    if (!emit_dir.empty()) {
      xpipes.write_systemc(spec, emit_dir);
      std::printf("\nsynthesis view written to %s/ (%zu files)\n",
                  emit_dir.c_str(), xpipes.emit_systemc(spec).size());
    }

    if (simulate_cycles > 0) {
      auto net = xpipes.build_simulation(spec);
      traffic::TrafficConfig tcfg;
      tcfg.injection_rate = rate;
      traffic::TrafficDriver driver(*net, tcfg);
      driver.run(simulate_cycles);
      net->run_until_quiescent(simulate_cycles * 20);
      const auto stats = traffic::collect_run(*net, simulate_cycles);
      std::printf("\nsimulation (%zu cycles, uniform random @%.3f):\n",
                  simulate_cycles, rate);
      std::printf("  %s\n", stats.to_string().c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "xpipesc: %s\n", e.what());
    return 1;
  }
  return 0;
}
