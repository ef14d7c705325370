#include "src/sweep/runner.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/compiler/compiler.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/benchmarks.hpp"

namespace xpl::sweep {

SweepRunner::SweepRunner(std::size_t jobs) : jobs_(jobs) {
  if (jobs_ == 0) {
    jobs_ = std::thread::hardware_concurrency();
    if (jobs_ == 0) jobs_ = 1;
  }
}

void SweepRunner::run_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  const std::size_t workers = std::min(jobs_, n);
  if (workers <= 1) {
    // Same contract as the parallel path: every index runs, the first
    // exception is rethrown after the loop drains.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  // One deque per worker, jobs dealt round-robin. A worker drains its own
  // deque from the front and, when empty, steals from the back of the
  // busiest victim — classic work stealing, coarse (mutex per deque)
  // because jobs are whole simulations, not microtasks.
  struct Queue {
    std::mutex mutex;
    std::deque<std::size_t> jobs;
  };
  std::vector<Queue> queues(workers);
  for (std::size_t i = 0; i < n; ++i) {
    queues[i % workers].jobs.push_back(i);
  }

  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&](std::size_t self) {
    for (;;) {
      std::size_t job = 0;
      bool found = false;
      {
        std::lock_guard<std::mutex> lock(queues[self].mutex);
        if (!queues[self].jobs.empty()) {
          job = queues[self].jobs.front();
          queues[self].jobs.pop_front();
          found = true;
        }
      }
      if (!found) {
        // Steal from the victim with the most queued work.
        std::size_t victim = workers;
        std::size_t best = 0;
        for (std::size_t v = 0; v < workers; ++v) {
          if (v == self) continue;
          std::lock_guard<std::mutex> lock(queues[v].mutex);
          if (queues[v].jobs.size() > best) {
            best = queues[v].jobs.size();
            victim = v;
          }
        }
        if (victim == workers) return;  // everything drained
        std::lock_guard<std::mutex> lock(queues[victim].mutex);
        if (queues[victim].jobs.empty()) continue;  // raced; rescan
        job = queues[victim].jobs.back();
        queues[victim].jobs.pop_back();
      }
      try {
        fn(job);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

SweepResult SweepRunner::run_point(const SweepPoint& point) {
  SweepResult result;
  result.point = point;
  result.evaluated = true;
  try {
    compiler::NocSpec spec;
    spec.name = point.label();
    spec.topo = point.build_topology();
    spec.net = point.net;

    const compiler::XpipesCompiler xpipes;
    auto network = xpipes.build_simulation(spec);

    traffic::TrafficConfig traffic_cfg = point.traffic;
    if (!point.app.empty()) {
      // Benchmark points: place the app's core graph on this topology
      // (deterministic, no RNG) and drive its bandwidth matrix.
      traffic_cfg.weights = workload::benchmark_weights(
          workload::benchmark(point.app), spec.topo);
    }
    traffic::TrafficDriver driver(*network, traffic_cfg);
    driver.run(point.sim_cycles);
    network->run_until_quiescent(point.drain_cycles);

    const auto stats =
        traffic::collect_run(*network, point.sim_cycles, point.warmup);
    result.transactions = stats.transactions;
    result.avg_latency_cycles = stats.latency.mean;
    result.p95_latency_cycles = stats.latency.p95;
    result.throughput_tpc = stats.throughput;
    result.link_flits = stats.link_flits;
    result.retransmissions = stats.retransmissions;
    result.credit_stalls = stats.credit_stalls;
    result.avg_link_utilization = stats.avg_link_utilization;

    if (point.estimate) {
      const auto report = xpipes.estimate(*network, point.target_mhz);
      result.area_mm2 = report.total_area_mm2;
      result.power_mw = report.total_power_mw;
      result.fmax_mhz = report.min_fmax_mhz;
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

ResultTable SweepRunner::run(const SweepSpec& spec) const {
  return run(spec, RunOptions{});
}

ResultTable SweepRunner::run(const SweepSpec& spec,
                             const RunOptions& opts) const {
  spec.validate();
  const auto points = spec.points();
  ResultTable table(points.size());
  // Export schema follows the *spec*, not the drawn points: a sampled
  // flow campaign keeps its flow/credit_stalls columns even when the
  // draw happens to contain only ack_nack points; likewise for vcs.
  if (spec.flows.size() > 1 || spec.flows.front() != "ack_nack") {
    table.mark_flow_axis();
  }
  if (spec.vcss.size() > 1 || spec.vcss.front() != 1) {
    table.mark_vcs_axis();
  }

  // Seed the table with previously evaluated rows (resume path). The
  // restored rows were produced by the same deterministic pipeline, so
  // the finished table cannot differ from an uninterrupted run.
  std::vector<std::size_t> pending;
  if (opts.resume != nullptr) {
    for (const SweepResult& done : *opts.resume) {
      require(done.evaluated, "SweepRunner: resume row not evaluated");
      require(done.point.index < points.size(),
              "SweepRunner: resume row index out of range");
      table.set(done);
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!table.row(i).evaluated) pending.push_back(i);
    }
  } else {
    pending.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) pending[i] = i;
  }

  std::mutex table_mutex;
  std::size_t completed = 0;
  run_indexed(pending.size(), [&](std::size_t k) {
    if (opts.halt_after != 0) {
      // Controlled interruption: stop picking up new work once the
      // threshold is reached (in-flight jobs still land in the table).
      std::lock_guard<std::mutex> lock(table_mutex);
      if (completed >= opts.halt_after) return;
    }
    SweepResult result = run_point(points[pending[k]]);
    std::lock_guard<std::mutex> lock(table_mutex);
    ++completed;
    if (on_result) on_result(result);
    table.set(std::move(result));
    if (opts.on_progress) opts.on_progress(table);
  });
  return table;
}

ResultTable SweepRunner::run_adaptive(Proposer& proposer) const {
  std::vector<SweepResult> results;
  for (;;) {
    std::vector<SweepPoint> batch = proposer.propose(results);
    if (batch.empty()) break;
    // Evaluation order is batch order, fixed before any point runs, so
    // seeds and exports never depend on scheduling.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].index = results.size() + i;
    }
    std::vector<SweepResult> batch_results(batch.size());
    run_indexed(batch.size(), [&](std::size_t i) {
      batch_results[i] = run_point(batch[i]);
    });
    for (SweepResult& r : batch_results) {
      if (on_result) on_result(r);
      results.push_back(std::move(r));
    }
  }

  ResultTable table(results.size());
  if (proposer.sweeps_flow()) table.mark_flow_axis();
  if (proposer.sweeps_vcs()) table.mark_vcs_axis();
  for (SweepResult& r : results) table.set(std::move(r));
  return table;
}

}  // namespace xpl::sweep
