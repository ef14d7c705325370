// F12 (extension) — application workloads: smooth vs bursty injection.
//
// The workload layer's scenario matrix on one chart: the three embedded
// SoC benchmarks (MPEG-4 decoder, VOPD, MWD) mapped onto a 4x3 mesh and
// driven at the same mean offered load twice — once Bernoulli
// (burstiness 0) and once with on/off bursts packing the load into 20%
// of the cycles (burstiness 0.8). Stats use a 500-cycle warmup window.
// Expected shape: identical mean rates, but the bursty columns sit
// higher in mean and far higher in p95 latency — temporal clustering,
// not average load, is what stresses the buffers.
//
// Runs on the src/sweep/ campaign engine: each (app, burstiness) cell is
// one independent SweepPoint on the thread pool, so the table is
// identical for any worker count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"

namespace {

xpl::sweep::SweepPoint make_point(std::size_t index, const std::string& app,
                                  double burstiness) {
  xpl::sweep::SweepPoint p;
  p.index = index;
  p.topology = "mesh";
  p.width = 4;
  p.height = 3;
  p.sim_cycles = 6000;
  p.drain_cycles = 80000;
  p.warmup = 500;
  p.estimate = false;  // F12 only charts simulation metrics
  p.app = app;
  p.net.routing = xpl::topology::RoutingAlgorithm::kXY;
  p.net.target_window = 1 << 12;
  p.traffic.pattern = xpl::traffic::Pattern::kWeighted;
  p.traffic.injection_rate = 0.03;
  p.traffic.burstiness = burstiness;
  p.traffic.avg_burst_cycles = 40;  // long dwells: MPEG-frame-ish bursts
  p.traffic.max_burst = 4;
  p.traffic.seed = 33;
  return p;
}

}  // namespace

int main() {
  using namespace xpl;
  bench::banner("F12", "app workloads on a 4x3 mesh: smooth vs bursty");

  const std::vector<std::string> apps{"mpeg4", "vopd", "mwd"};
  // Points 2i = Bernoulli, 2i+1 = bursty, for apps[i].
  std::vector<sweep::SweepPoint> points;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    points.push_back(make_point(2 * i, apps[i], 0.0));
    points.push_back(make_point(2 * i + 1, apps[i], 0.8));
  }

  const sweep::SweepRunner runner;  // hardware concurrency
  sweep::ResultTable table(points.size());
  runner.run_indexed(points.size(), [&](std::size_t i) {
    table.set(sweep::SweepRunner::run_point(points[i]));
  });

  for (const auto& r : table.rows()) {
    if (!r.ok) {
      std::fprintf(stderr, "F12: point %s failed: %s\n",
                   r.point.label().c_str(), r.error.c_str());
      return 1;
    }
  }

  std::printf("%-8s | %-26s | %-26s\n", "", "smooth (b=0)",
              "bursty (b=0.8)");
  std::printf("%-8s | %-8s %-8s %-8s | %-8s %-8s %-8s\n", "app", "thru",
              "mean", "p95", "thru", "mean", "p95");
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& smooth = table.row(2 * i);
    const auto& bursty = table.row(2 * i + 1);
    std::printf("%-8s | %-8.4f %-8.1f %-8.0f | %-8.4f %-8.1f %-8.0f\n",
                apps[i].c_str(), smooth.throughput_tpc,
                smooth.avg_latency_cycles, smooth.p95_latency_cycles,
                bursty.throughput_tpc, bursty.avg_latency_cycles,
                bursty.p95_latency_cycles);
  }
  std::printf(
      "\nexpected shape: equal offered load per row; the bursty half\n"
      "carries the same throughput at visibly higher mean latency and a\n"
      "p95 tail that grows with each app's traffic concentration.\n");
  return 0;
}
