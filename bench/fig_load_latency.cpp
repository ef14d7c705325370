// F11 (extension) — latency vs offered load.
//
// The canonical NoC characterization the paper's simulation view enables:
// sweep the injection rate on a 4x4 mesh under uniform random traffic and
// chart mean/p95 read latency and accepted throughput up to saturation.
// Run for both the lite 2-stage switch and the old 7-stage switch to show
// where the pipeline redesign moves the curve.
//
// The sweep itself runs on the src/sweep/ campaign engine: each
// (rate, switch-depth) cell is one independent SweepPoint executed on the
// thread pool, results keyed by point index so the table is
// identical for any worker count.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"

namespace {

/// One (rate, pipeline-depth) cell as a sweep job on the 4x4 mesh.
xpl::sweep::SweepPoint make_point(std::size_t index, double rate,
                                  std::size_t extra_pipeline) {
  xpl::sweep::SweepPoint p;
  p.index = index;
  p.topology = "mesh";
  p.width = 4;
  p.height = 4;
  p.sim_cycles = 6000;
  p.drain_cycles = 80000;
  p.estimate = false;  // F11 only charts simulation metrics
  p.net.routing = xpl::topology::RoutingAlgorithm::kXY;
  p.net.target_window = 1 << 12;
  p.net.extra_switch_pipeline = extra_pipeline;
  p.traffic.injection_rate = rate;
  p.traffic.read_fraction = 1.0;
  p.traffic.max_burst = 2;
  p.traffic.seed = 33;
  return p;
}

}  // namespace

int main() {
  using namespace xpl;
  bench::banner("F11", "latency vs offered load, 4x4 mesh, uniform random");

  const std::vector<double> rates{0.005, 0.01, 0.02, 0.04,
                                  0.08,  0.12, 0.16, 0.20};
  // Points 2i = lite 2-stage, 2i+1 = old 7-stage at rates[i].
  std::vector<sweep::SweepPoint> points;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    points.push_back(make_point(2 * i, rates[i], 0));
    points.push_back(make_point(2 * i + 1, rates[i], 5));
  }

  const sweep::SweepRunner runner;  // hardware concurrency
  sweep::ResultTable table(points.size());
  runner.run_indexed(points.size(), [&](std::size_t i) {
    table.set(sweep::SweepRunner::run_point(points[i]));
  });

  for (const auto& r : table.rows()) {
    if (!r.ok) {
      std::fprintf(stderr, "F11: point %s failed: %s\n",
                   r.point.label().c_str(), r.error.c_str());
      return 1;
    }
  }

  std::printf("%-10s | %-24s | %-24s\n", "", "lite 2-stage", "old 7-stage");
  std::printf("%-10s | %-8s %-7s %-7s | %-8s %-7s %-7s\n", "offered",
              "accepted", "mean", "p95", "accepted", "mean", "p95");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& lite = table.row(2 * i);
    const auto& old7 = table.row(2 * i + 1);
    std::printf("%-10.3f | %-8.4f %-7.1f %-7.0f | %-8.4f %-7.1f %-7.0f\n",
                rates[i], lite.throughput_tpc / 16.0,
                lite.avg_latency_cycles, lite.p95_latency_cycles,
                old7.throughput_tpc / 16.0, old7.avg_latency_cycles,
                old7.p95_latency_cycles);
  }
  std::printf(
      "\nexpected shape: flat latency at low load, knee near saturation;\n"
      "the 7-stage switch saturates earlier and sits ~1.5-2x higher in\n"
      "latency everywhere — the redesign the paper leads with.\n");
  return 0;
}
