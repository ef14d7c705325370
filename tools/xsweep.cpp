// xsweep — parallel design-space exploration campaigns.
//
// Reads a sweep specification (src/sweep/spec.hpp grammar; docs/FORMATS.md
// is the reference), runs every campaign point on a thread pool, and
// reports the result table plus its Pareto front. Results are
// bit-identical for any --jobs value. Campaigns can sweep synthetic
// patterns, embedded app benchmarks (`pattern app:mpeg4`), injection
// burstiness, warmup windows — see examples/app_scan.sweep — and the
// link-level flow control (`flow ack_nack credit`, which adds
// retransmissions-vs-credit_stalls columns; examples/flow_scan.sweep).
// Usage:
//
//   xsweep <campaign.sweep> [options]
//   xsweep --resume <campaign.ckpt> [options]
//     --jobs N             worker threads (default: hardware concurrency)
//     --sim-threads N      threads *inside* each point's partitioned
//                          kernel (overrides the spec's `threads`
//                          directive; results are bit-identical at any
//                          value, so this is safe on --resume too)
//     --max-hw-threads N   total thread budget: --jobs is clamped so
//                          jobs x sim-threads <= N (default: hardware
//                          concurrency)
//     --csv <path>         write the result table as CSV
//     --json <path>        write the result table as JSON
//     --bench-json <path>  write a BENCH_*.json campaign summary
//                          (wall clock, points/s) for perf tracking
//     --checkpoint <path>  save a resumable checkpoint sidecar after every
//                          completed point (atomic; docs/FORMATS.md §5)
//     --resume <path>      continue an interrupted campaign from its
//                          checkpoint (the spec is embedded; keeps
//                          checkpointing to the same path). The finished
//                          exports are byte-identical to an uninterrupted
//                          run at any --jobs.
//     --halt-after N       stop scheduling new points after N complete in
//                          this session and exit 3 (requires --checkpoint
//                          or --resume; the controlled-interruption hook
//                          the resume tests and CI use)
//     --pareto             print only the Pareto front
//     --check-deadlock     run the VC-aware channel-dependency checker on
//                          every point (no simulation) and exit nonzero
//                          with the offending cycle if any can deadlock
//     --print-spec         echo the canonical specification and exit
//     --list-apps          list the embedded app benchmarks and exit
//     --quiet              suppress per-point progress lines
//
// Example:
//   xsweep examples/mesh_scan.sweep --jobs 8 --csv out.csv --pareto
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "src/sweep/checkpoint.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/deadlock.hpp"
#include "src/workload/benchmarks.hpp"
#include "tools/flags.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <campaign.sweep> [--jobs N] [--csv <path>]\n"
               "          [--json <path>] [--bench-json <path>]\n"
               "          [--checkpoint <path>] [--resume <path>]\n"
               "          [--halt-after N] [--pareto] [--check-deadlock]\n"
               "          [--print-spec] [--list-apps] [--quiet]\n"
               "          [--sim-threads N]\n"
               "          [--max-hw-threads N]\n"
               "       %s --resume <campaign.ckpt> [options]\n",
               argv0, argv0);
}

/// `--check-deadlock`: pre-flight every campaign point through the
/// VC-aware channel-dependency-graph checker — seconds instead of a
/// campaign that silently hangs at saturation. Returns the number of
/// points whose routes can deadlock.
std::size_t check_deadlock_all(const xpl::sweep::SweepSpec& spec,
                               bool quiet) {
  using namespace xpl;
  std::size_t bad = 0;
  for (const sweep::SweepPoint& point : spec.points()) {
    const topology::Topology topo = point.build_topology();
    const auto tables =
        topology::compute_all_routes(topo, point.net.routing);
    const auto policy =
        topology::make_vc_policy(topo, point.net.routing, point.net.vcs);
    const auto report = topology::check_deadlock(topo, tables, policy);
    if (!report.deadlock_free) {
      ++bad;
      std::printf("DEADLOCK %-28s %s\n", point.label().c_str(),
                  report.to_string(topo).c_str());
    } else if (!quiet) {
      std::printf("ok       %-28s (%zu lane%s, %s)\n",
                  point.label().c_str(), point.net.vcs,
                  point.net.vcs == 1 ? "" : "s",
                  policy.dateline ? "dateline" : "lane-preserving");
    }
  }
  return bad;
}

/// `--list-apps`: the benchmarks a `pattern app:<name>` axis accepts.
void list_apps() {
  std::printf("%-8s %-6s %-6s %s\n", "name", "cores", "flows",
              "total MB/s");
  for (const auto& name : xpl::workload::benchmark_names()) {
    const auto graph = xpl::workload::benchmark(name);
    std::printf("%-8s %-6zu %-6zu %.0f\n", name.c_str(), graph.num_cores(),
                graph.flows().size(), graph.total_bandwidth());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpl;
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }

  std::string spec_path;
  std::string csv_path;
  std::string json_path;
  std::string bench_json_path;
  std::string checkpoint_path;
  std::string resume_path;
  std::size_t jobs = 0;
  std::size_t sim_threads = 0;     // 0 = use the spec's `threads`
  std::size_t max_hw_threads = 0;  // 0 = hardware concurrency
  std::size_t halt_after = 0;
  bool pareto_only = false;
  bool print_spec = false;
  bool check_deadlock = false;
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
          cli::flag_u64("xsweep", arg, next(), 1, text::kMaxThreads));
    } else if (arg == "--sim-threads") {
      sim_threads = static_cast<std::size_t>(
          cli::flag_u64("xsweep", arg, next(), 1, text::kMaxThreads));
    } else if (arg == "--max-hw-threads") {
      max_hw_threads = static_cast<std::size_t>(
          cli::flag_u64("xsweep", arg, next(), 1, text::kMaxThreads));
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--bench-json") {
      bench_json_path = next();
    } else if (arg == "--checkpoint") {
      checkpoint_path = next();
    } else if (arg == "--resume") {
      resume_path = next();
    } else if (arg == "--halt-after") {
      halt_after = static_cast<std::size_t>(
          cli::flag_u64("xsweep", arg, next(), 1, text::kMaxU64));
    } else if (arg == "--pareto") {
      pareto_only = true;
    } else if (arg == "--check-deadlock") {
      check_deadlock = true;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--list-apps") {
      list_apps();
      return 0;
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
  if (spec_path.empty() && resume_path.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (halt_after != 0 && checkpoint_path.empty() && resume_path.empty()) {
    std::fprintf(stderr,
                 "xsweep: --halt-after needs --checkpoint or --resume "
                 "(halted progress would be lost)\n");
    return 2;
  }

  try {
    // A resumed campaign carries its spec in the checkpoint; a spec file
    // given alongside must agree (canonical-form comparison), so a stale
    // sidecar cannot silently continue the wrong campaign.
    sweep::Checkpoint ckpt;
    sweep::SweepSpec spec;
    if (!resume_path.empty()) {
      ckpt = sweep::load_checkpoint(resume_path);
      spec = sweep::checkpoint_spec(ckpt);
      if (!spec_path.empty() &&
          sweep::write_sweep(sweep::load_sweep(spec_path)) !=
              ckpt.spec_text) {
        std::fprintf(stderr,
                     "xsweep: %s does not match the campaign embedded in "
                     "%s\n",
                     spec_path.c_str(), resume_path.c_str());
        return 2;
      }
      if (checkpoint_path.empty()) checkpoint_path = resume_path;
    } else {
      spec = sweep::load_sweep(spec_path);
    }
    // Safe even on resume: partitioned results are bit-exact at any
    // thread count, so overriding mid-campaign changes nothing.
    if (sim_threads != 0) spec.threads = sim_threads;

    // Oversubscription guard: --jobs parallelizes across points and the
    // spec's `threads` within each point; their product must fit the
    // machine (or the explicit --max-hw-threads budget), or every point
    // slows down together.
    {
      std::size_t hw = std::thread::hardware_concurrency();
      if (hw == 0) hw = 1;
      const std::size_t cap = max_hw_threads != 0 ? max_hw_threads : hw;
      const std::size_t per_point = std::max<std::size_t>(1, spec.threads);
      const std::size_t want = jobs != 0 ? jobs : hw;
      if (want * per_point > cap) {
        const std::size_t clamped =
            std::max<std::size_t>(1, cap / per_point);
        std::fprintf(stderr,
                     "xsweep: clamping --jobs %zu -> %zu (%zu sim "
                     "thread(s) per point, %zu hardware thread budget)\n",
                     want, clamped, per_point, cap);
        jobs = clamped;
      } else if (jobs == 0) {
        jobs = want;
      }
    }
    if (print_spec) {
      std::fputs(sweep::write_sweep(spec).c_str(), stdout);
      return 0;
    }
    if (check_deadlock) {
      const std::size_t bad = check_deadlock_all(spec, quiet);
      std::printf("%zu/%zu points deadlock-free\n",
                  spec.num_points() - bad, spec.num_points());
      return bad == 0 ? 0 : 1;
    }

    sweep::SweepRunner runner(jobs);
    std::printf("campaign '%s': %zu points (grid %zu), %zu worker(s)\n",
                spec.name.c_str(), spec.num_points(), spec.grid_size(),
                runner.jobs());
    if (!resume_path.empty()) {
      std::printf("resuming from %s: %zu/%zu points already done\n",
                  resume_path.c_str(), ckpt.results.size(),
                  spec.num_points());
    }

    std::size_t done = ckpt.results.size();
    if (!quiet) {
      runner.on_result = [&](const sweep::SweepResult& r) {
        ++done;
        const std::string status = r.ok ? "ok" : "FAILED: " + r.error;
        std::printf("[%zu/%zu] %-28s %s\n", done, spec.num_points(),
                    r.point.label().c_str(), status.c_str());
      };
    }

    sweep::RunOptions opts;
    if (!resume_path.empty()) opts.resume = &ckpt.results;
    opts.halt_after = halt_after;
    if (!checkpoint_path.empty()) {
      opts.on_progress = [&](const sweep::ResultTable& partial) {
        sweep::save_checkpoint(sweep::make_checkpoint(spec, partial),
                               checkpoint_path);
      };
    }

    const auto start = std::chrono::steady_clock::now();
    const sweep::ResultTable table = runner.run(spec, opts);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::size_t evaluated = 0;
    for (const auto& r : table.rows()) evaluated += r.evaluated ? 1 : 0;
    if (evaluated < table.size()) {
      std::printf("\nhalted: %zu/%zu points done, checkpoint saved to %s\n",
                  evaluated, table.size(), checkpoint_path.c_str());
      return 3;
    }

    std::printf("\n%zu/%zu points ok, %.2f s wall (%.2f points/s)\n\n",
                table.num_ok(), table.size(), wall_s,
                wall_s > 0 ? table.size() / wall_s : 0.0);
    std::fputs(table.summary(pareto_only).c_str(), stdout);
    if (pareto_only) {
      std::printf("\n(%zu of %zu ok points on the Pareto front)\n",
                  table.pareto_front().size(), table.num_ok());
    }

    if (!csv_path.empty()) table.save_csv(csv_path);
    if (!json_path.empty()) table.save_json(json_path);
    if (!bench_json_path.empty()) {
      std::ofstream out(bench_json_path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot open %s\n", bench_json_path.c_str());
        return 1;
      }
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"bench\": \"xsweep\", \"campaign\": \"%s\", "
                    "\"points\": %zu, \"ok\": %zu, \"jobs\": %zu, "
                    "\"wall_s\": %.3f, \"points_per_s\": %.3f}\n",
                    spec.name.c_str(), table.size(), table.num_ok(),
                    runner.jobs(), wall_s,
                    wall_s > 0 ? table.size() / wall_s : 0.0);
      out << buf;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xsweep: %s\n", e.what());
    return 1;
  }
}
