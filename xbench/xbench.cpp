// xbench — end-to-end benchmark program for the xpipes lite library.
//
// Runs one workload for a fixed host-time window and prints, as the last
// line of stdout, one JSON object: correctness verdict, operations
// attempted and failed, the result digest and the metrics. Each workload's
// input is `.sweep` or `.tune` text generated from --seed, and the library
// is driven only through the public calls xsweep and xtune make, so the
// numbers are what a user of those tools waits for. xbench/README.md
// describes the workloads, metrics and trace format.
//
//   xbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          --out-dir <dir>
//
// --trace 0 reports the end-to-end metrics. --trace 1 pairs every
// operation with a traced re-drive of the same public calls, each timed
// from outside under a span; it checks that the traced results are
// bit-identical to the untraced ones, that child spans cover >= 90% of
// every parent span, reports per-layer metrics and writes the spans to
// <out-dir>/spans.json. Nothing inside the library is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/compiler/compiler.hpp"
#include "src/compiler/spec_io.hpp"
#include "src/sweep/checkpoint.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/deadlock.hpp"
#include "src/topology/routing.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/tune/spec.hpp"
#include "src/tune/tuner.hpp"
#include "src/workload/benchmarks.hpp"

namespace {

using namespace xpl;
namespace fs = std::filesystem;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Chunk-boundary samples of the kernel's awake set per traced point.
constexpr std::size_t kAwakeSamples = 64;
/// Minimum child-span coverage of every parent span in a traced run.
constexpr double kMinCoverage = 0.90;
/// Set-up samples per run: at least this many, and enough to fill this
/// share of the measurement window.
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupShare = 0.10;

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A run's value of a repeated timing: the first quartile of its samples.
/// On a shared host other tenants' load only ever adds time, in bursts
/// that can cover half a run; the faster quarter tracks the code's own
/// cost and varies far less between runs than the median (README.md).
double fast_quartile(const std::vector<double>& times) {
  return quantile(times, 0.25);
}

// ---------------------------------------------------------------- spans

struct SpanRec {
  const char* name;
  double start;
  double end;
  std::size_t parent;  ///< kNone for a root span
  std::size_t point;   ///< point id (campaign index / eval / op), or kNone
};

/// In-memory span store, written out once when the run ends. Locked,
/// because SweepRunner::run_indexed may call into it from several workers.
class Trace {
 public:
  std::size_t open(const char* name, double start, std::size_t parent,
                   std::size_t point) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, start, parent, point});
    return spans_.size() - 1;
  }
  void close(std::size_t id, double end) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end = end;
  }
  std::size_t add(const char* name, double start, double end,
                  std::size_t parent, std::size_t point) {
    const std::size_t id = open(name, start, parent, point);
    close(id, end);
    return id;
  }
  std::vector<SpanRec> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRec> spans_;
};

/// Times one layer call from outside. With a null Trace it only measures
/// its own duration, which is how the untraced paths time simulation.
class Span {
 public:
  Span(Trace* trace, const char* name, std::size_t parent, std::size_t point)
      : trace_(trace), start_(now_s()) {
    if (trace_ != nullptr) id_ = trace_->open(name, start_, parent, point);
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::size_t id() const { return id_; }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      stopped_ = true;
      end_ = now_s();
      if (trace_ != nullptr) trace_->close(id_, end_);
    }
    return end_ - start_;
  }

 private:
  Trace* trace_;
  double start_;
  double end_ = 0.0;
  std::size_t id_ = kNone;
  bool stopped_ = false;
};

// ------------------------------------------------------------ one point

/// One point driven through run_point's public calls, plus what the
/// benchmark can read off the network afterwards.
struct PointRun {
  sweep::SweepResult result;
  traffic::RunStats stats;
  std::uint64_t drained = 0;    ///< cycles run_until_quiescent stepped
  std::uint64_t leapt = 0;      ///< cycles the time-leap kernel skipped
  std::uint64_t injected = 0;   ///< transactions the TrafficDriver pushed
  std::uint64_t completed = 0;  ///< transactions the masters completed
  bool quiescent = false;
  double awake_frac = 0.0;  ///< mean awake/module share at chunk ends
  double sim_s = 0.0;       ///< host seconds in TrafficDriver::run + drain
};

/// Re-drives SweepRunner::run_point's calls in its order, each under a
/// span that is a child of this point's span. `sample` splits the driven
/// window into kAwakeSamples chunks to sample the kernel's awake set; the
/// correctness gate proves this leaves every result bit-identical.
PointRun drive_point(const sweep::SweepPoint& point, Trace* trace,
                     std::size_t parent, std::size_t point_id, bool sample) {
  PointRun run;
  sweep::SweepResult& result = run.result;
  result.point = point;
  result.evaluated = true;
  const Span span(trace, "point", parent, point_id);
  const std::size_t me = span.id();
  try {
    compiler::NocSpec spec;
    spec.name = point.label();
    {
      const Span s(trace, "topology.generate", me, point_id);
      spec.topo = point.build_topology();
    }
    spec.net = point.net;

    const compiler::XpipesCompiler xpipes;
    std::unique_ptr<noc::Network> network;
    {
      const Span s(trace, "noc.build", me, point_id);
      network = xpipes.build_simulation(spec);
    }
    traffic::TrafficConfig traffic_cfg = point.traffic;
    if (!point.app.empty()) {
      const Span s(trace, "workload.place", me, point_id);
      traffic_cfg.weights = workload::benchmark_weights(
          workload::benchmark(point.app), spec.topo);
    }
    {
      traffic::TrafficDriver driver(*network, traffic_cfg);
      {
        Span s(trace, "traffic.run", me, point_id);
        if (sample) {
          const double modules =
              static_cast<double>(network->kernel().module_count());
          double awake = 0.0;
          for (std::size_t k = 0; k < kAwakeSamples; ++k) {
            driver.run(point.sim_cycles * (k + 1) / kAwakeSamples -
                       point.sim_cycles * k / kAwakeSamples);
            awake += static_cast<double>(network->kernel().awake_count()) /
                     modules;
          }
          run.awake_frac = awake / kAwakeSamples;
        } else {
          driver.run(point.sim_cycles);
        }
        run.sim_s += s.stop();
      }
      {
        Span s(trace, "noc.drain", me, point_id);
        run.drained = network->run_until_quiescent(point.drain_cycles);
        run.sim_s += s.stop();
      }
      {
        const Span s(trace, "traffic.collect", me, point_id);
        run.stats =
            traffic::collect_run(*network, point.sim_cycles, point.warmup);
      }
      run.injected = driver.injected();
    }
    const traffic::RunStats& stats = run.stats;
    result.transactions = stats.transactions;
    result.avg_latency_cycles = stats.latency.mean;
    result.p95_latency_cycles = stats.latency.p95;
    result.throughput_tpc = stats.throughput;
    result.link_flits = stats.link_flits;
    result.retransmissions = stats.retransmissions;
    result.credit_stalls = stats.credit_stalls;
    result.avg_link_utilization = stats.avg_link_utilization;

    run.leapt = network->kernel().leapt_cycles();
    for (std::size_t i = 0; i < network->num_initiators(); ++i) {
      run.completed += network->master(i).completed().size();
    }
    run.quiescent = network->quiescent();

    if (point.estimate) {
      const Span s(trace, "synth.estimate", me, point_id);
      const auto report = xpipes.estimate(spec, point.target_mhz);
      result.area_mm2 = report.total_area_mm2;
      result.power_mw = report.total_power_mw;
      result.fmax_mhz = report.min_fmax_mhz;
    }
    {
      // run_point frees the network when its point ends; time it too.
      const Span s(trace, "noc.teardown", me, point_id);
      network.reset();
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  return run;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-exact equality of everything run_point measures.
bool same_result(const sweep::SweepResult& a, const sweep::SweepResult& b) {
  return a.point.label() == b.point.label() && a.ok == b.ok &&
         a.error == b.error && a.transactions == b.transactions &&
         same_bits(a.avg_latency_cycles, b.avg_latency_cycles) &&
         same_bits(a.p95_latency_cycles, b.p95_latency_cycles) &&
         same_bits(a.throughput_tpc, b.throughput_tpc) &&
         a.link_flits == b.link_flits &&
         a.retransmissions == b.retransmissions &&
         a.credit_stalls == b.credit_stalls &&
         same_bits(a.avg_link_utilization, b.avg_link_utilization) &&
         same_bits(a.area_mm2, b.area_mm2) &&
         same_bits(a.power_mw, b.power_mw) &&
         same_bits(a.fmax_mhz, b.fmax_mhz);
}

/// The digest text of a single-network run: every RunStats field, doubles
/// as hexfloats so the digest sees every bit.
std::string run_stats_text(const traffic::RunStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%llu %a %llu %llu %a %a %llu %llu %llu %a %llu %llu %llu "
                "%a\n",
                static_cast<unsigned long long>(s.latency.count),
                s.latency.mean,
                static_cast<unsigned long long>(s.latency.min),
                static_cast<unsigned long long>(s.latency.max),
                s.latency.p50, s.latency.p95,
                static_cast<unsigned long long>(s.transactions),
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.warmup), s.throughput,
                static_cast<unsigned long long>(s.link_flits),
                static_cast<unsigned long long>(s.retransmissions),
                static_cast<unsigned long long>(s.credit_stalls),
                s.avg_link_utilization);
  return buf;
}

// ------------------------------------------------------------ workloads

// Sizes keep one operation at 1-2.5 s on a 4-vCPU x86 KVM container, so
// an 18 s window holds 7-15 of them.

/// 64-point campaign: the xsweep loop, with set-up (build, estimate) at
/// over a third of point time. One worker: two doubled the run-to-run
/// spread on a shared host (README.md).
std::string campaign_text(std::uint64_t seed) {
  return "sweep campaign_grid\nseed " + std::to_string(seed) +
         "\n"
         "cycles 1500\n"
         "drain 40000\n"
         "target_mhz 800\n"
         "topology mesh torus\n"
         "width 4 8\n"
         "height 4\n"
         "flit_width 64 128\n"
         "flow ack_nack credit\n"
         "pattern uniform app:vopd\n"
         "injection_rate 0.01 0.04\n";
}

/// Adaptive tuning: successive-halving batches, a hill climb and a serial
/// saturation bisection on a 5x5 mesh; 54 evaluations at every seed.
std::string tune_text(std::uint64_t seed) {
  return "tune tune_mesh5\nseed " + std::to_string(seed) +
         "\n"
         "cycles 1000\n"
         "drain 30000\n"
         "warmup 0\n"
         "budget 64\n"
         "rate 0.05\n"
         "target_mhz 800\n"
         "objective latency 1 area 0.2 power 0.05\n"
         "topology mesh\n"
         "width 5\n"
         "height 5\n"
         "flit_width 64\n"
         "pattern uniform\n"
         "search fifo_depth 2 4 8\n"
         "search vcs 1 2\n"
         "search flow ack_nack credit\n"
         "search routing auto minimal\n"
         "saturation 0.01 0.32 0.005\n";
}

/// A single-network workload: one `.sweep` point, simulated without the
/// synthesis estimate.
struct SingleNet {
  const char* name;
  const char* body;       ///< sweep directives after `sweep` and `seed`
  double bit_error_rate;  ///< set on the resolved point: no text format
                          ///< carries a BER directive
};

const SingleNet kSingles[] = {
    // Near-idle large mesh: the time-leap calendar and the network build
    // (routes and the deadlock check grow about cubically with switch
    // count) dominate; switch and link work is nearly zero.
    {"trickle_mesh12",
     "cycles 600000\ndrain 40000\ntopology mesh\nwidth 12\nheight 12\n"
     "flit_width 128\npattern uniform\ninjection_rate 0.00002\n",
     0.0},
    // Just below the measured knee: switches, links and NIs busy every
    // cycle, nothing leapt, credit-stall catch-up exercised.
    {"loaded_credit_mesh8",
     "cycles 10000\ndrain 40000\ntopology mesh\nwidth 8\nheight 8\n"
     "flit_width 64\nvcs 2\nflow credit\npattern uniform\n"
     "injection_rate 0.08\n",
     0.0},
    // The same link layer on its other path: CRC plus go-back-N
    // retransmission of corrupted flits.
    {"noisy_acknack_mesh8",
     "cycles 15000\ndrain 40000\ntopology mesh\nwidth 8\nheight 8\n"
     "flit_width 64\nflow ack_nack\npattern uniform\n"
     "injection_rate 0.04\n",
     1e-4},
};

const SingleNet* find_single(const std::string& name) {
  for (const SingleNet& w : kSingles) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string single_text(const SingleNet& w, std::uint64_t seed) {
  return std::string("sweep ") + w.name + "\nseed " + std::to_string(seed) +
         "\n" + w.body;
}

sweep::SweepPoint resolve_single(const SingleNet& w,
                                 const std::string& text) {
  sweep::SweepPoint point = sweep::parse_sweep(text).point(0);
  point.estimate = false;
  point.net.bit_error_rate = w.bit_error_rate;
  return point;
}

// ----------------------------------------------------------- operations

/// One operation: a whole campaign, a whole tuning run, or one network
/// simulated from its text.
struct OpResult {
  double wall_s = 0.0;       ///< parse -> final output
  double sim_s = 0.0;        ///< single-network: run + drain host seconds
  std::uint64_t cycles = 0;  ///< simulated cycles (see README)
  std::size_t points = 0;    ///< campaign points / evaluations / 1
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string digest_text;
  std::vector<sweep::SweepResult> rows;  ///< for the traced comparison
};

/// Layer data a traced operation gathers besides its spans.
struct TraceBook {
  std::mutex mutex;
  std::vector<sweep::SweepPoint> points;  ///< every traced point
  std::uint64_t cycles = 0;               ///< driven + drained
  std::uint64_t leapt = 0;
  std::uint64_t link_flits = 0;
  std::uint64_t retx = 0;
  std::uint64_t credit_stalls = 0;
  double awake_sum = 0.0;
  double point_busy_s = 0.0;   ///< sum of point span durations
  double worker_wall_s = 0.0;  ///< workers x wall the points ran in
  double stage_s[3] = {0.0, 0.0, 0.0};  ///< tune: rungs, climb, saturation

  void add(const PointRun& run, double point_s) {
    std::lock_guard<std::mutex> lock(mutex);
    points.push_back(run.result.point);
    cycles += run.result.point.sim_cycles + run.drained;
    leapt += run.leapt;
    link_flits += run.result.link_flits;
    retx += run.result.retransmissions;
    credit_stalls += run.result.credit_stalls;
    awake_sum += run.awake_frac;
    point_busy_s += point_s;
  }
};

struct Context {
  std::uint64_t seed = 1;
  fs::path out;
  Trace* trace = nullptr;  ///< non-null only for traced operations
  TraceBook* book = nullptr;
  std::vector<std::string>* problems = nullptr;

  void fail(const std::string& what) const { problems->push_back(what); }
};

void count_rows(OpResult& op) {
  op.points = op.attempted = op.rows.size();
  for (const auto& r : op.rows) {
    if (!r.ok) ++op.failed;
    op.cycles += r.point.sim_cycles;
  }
}

/// Untraced campaign: exactly what `xsweep --jobs 1 --checkpoint
/// --csv --json --quiet` does.
OpResult campaign_op(const Context& ctx) {
  OpResult op;
  const double t0 = now_s();
  const sweep::SweepSpec spec = sweep::parse_sweep(campaign_text(ctx.seed));
  const sweep::SweepRunner runner(1);
  const std::string ckpt = (ctx.out / "campaign.ckpt").string();
  sweep::RunOptions opts;
  opts.on_progress = [&](const sweep::ResultTable& partial) {
    sweep::save_checkpoint(sweep::make_checkpoint(spec, partial), ckpt);
  };
  const sweep::ResultTable table = runner.run(spec, opts);
  table.save_csv((ctx.out / "campaign.csv").string());
  table.save_json((ctx.out / "campaign.json").string());
  op.wall_s = now_s() - t0;
  op.digest_text = table.to_csv();
  op.rows = table.rows();
  count_rows(op);
  return op;
}

/// Traced campaign: the same parse -> points -> checkpoint -> export
/// sequence, with run_point's calls re-driven through run_indexed.
OpResult traced_campaign_op(const Context& ctx, std::size_t op_id) {
  OpResult op;
  Trace* trace = ctx.trace;
  Span op_span(trace, "campaign", kNone, op_id);
  const std::size_t me = op_span.id();
  sweep::SweepSpec spec;
  std::vector<sweep::SweepPoint> points;
  {
    const Span s(trace, "sweep.parse", me, kNone);
    spec = sweep::parse_sweep(campaign_text(ctx.seed));
    points = spec.points();
  }
  // The runner's export schema rule (SweepRunner::run).
  sweep::ResultTable table(points.size());
  if (spec.flows.size() > 1 || spec.flows.front() != "ack_nack") {
    table.mark_flow_axis();
  }
  if (spec.vcss.size() > 1 || spec.vcss.front() != 1) table.mark_vcs_axis();

  const std::string ckpt = (ctx.out / "campaign.ckpt").string();
  const sweep::SweepRunner runner(1);
  std::mutex table_mutex;
  const double points_t0 = now_s();
  runner.run_indexed(points.size(), [&](std::size_t i) {
    const double p0 = now_s();
    PointRun run = drive_point(points[i], trace, me, i, true);
    ctx.book->add(run, now_s() - p0);
    const Span s(trace, "sweep.checkpoint", me, i);
    std::lock_guard<std::mutex> lock(table_mutex);
    table.set(std::move(run.result));
    sweep::save_checkpoint(sweep::make_checkpoint(spec, table), ckpt);
  });
  {
    std::lock_guard<std::mutex> lock(ctx.book->mutex);
    ctx.book->worker_wall_s +=
        static_cast<double>(runner.jobs()) * (now_s() - points_t0);
  }
  {
    const Span s(trace, "sweep.export", me, kNone);
    table.save_csv((ctx.out / "campaign.csv").string());
    table.save_json((ctx.out / "campaign.json").string());
  }
  op.wall_s = op_span.stop();
  op.digest_text = table.to_csv();
  op.rows = table.rows();
  count_rows(op);
  return op;
}

const char* const kStageNames[3] = {"tune.rungs", "tune.climb",
                                    "tune.saturation"};

std::size_t stage_index(const std::string& stage) {
  if (stage.rfind("rung", 0) == 0) return 0;
  return stage == "climb" ? 1 : 2;
}

/// Tuning run: what `xtune --jobs 1 --out-dir <dir>` does, up to the
/// winner's emitted .noc. Traced, the Tuner's on_eval hook timestamps
/// each stage and the trajectory is then replayed point by point.
OpResult tune_op(const Context& ctx, std::size_t op_id) {
  OpResult op;
  Trace* trace = ctx.trace;
  Span op_span(trace, "tune", kNone, op_id);
  const std::size_t me = op_span.id();
  tune::TuneSpec spec;
  {
    const Span s(trace, "sweep.parse", me, kNone);
    spec = tune::parse_tune(tune_text(ctx.seed));
  }
  const sweep::SweepRunner runner(1);
  tune::Tuner tuner(runner);
  // Evaluations reach on_eval in bursts, one burst per finished batch,
  // so the time from the previous burst to an eval belongs to its stage.
  std::vector<std::pair<double, std::size_t>> evals;
  if (trace != nullptr) {
    tuner.on_eval = [&](const tune::TuneEval& ev) {
      evals.emplace_back(now_s(), stage_index(ev.stage));
    };
  }
  const double run_t0 = now_s();
  const tune::TuneReport report = tuner.run(spec);
  const double run_s = now_s() - run_t0;
  if (report.best == tune::TuneReport::npos) {
    ctx.fail("tune: no configuration completed at full fidelity");
  } else {
    const Span s(trace, "sweep.export", me, kNone);
    compiler::save_spec(tune::to_noc_spec(spec, report.winner().config),
                        (ctx.out / "winner.noc").string());
  }
  op.wall_s = op_span.stop();
  op.digest_text = report.trajectory_csv();
  for (const tune::TuneEval& ev : report.trajectory) {
    op.rows.push_back(ev.result);
  }
  count_rows(op);
  if (trace == nullptr) return op;

  // Stage spans tile the tuner run: each stage ends at its last eval.
  double from = run_t0;
  for (std::size_t k = 0; k < evals.size(); ++k) {
    const bool last = k + 1 == evals.size() ||
                      evals[k + 1].second != evals[k].second;
    if (!last) continue;
    trace->add(kStageNames[evals[k].second], from, evals[k].first, me,
               kNone);
    ctx.book->stage_s[evals[k].second] += evals[k].first - from;
    from = evals[k].first;
  }

  // Replay: every trajectory row through the traced per-point path.
  Span replay(trace, "tune.replay", kNone, op_id);
  for (const tune::TuneEval& ev : report.trajectory) {
    const double p0 = now_s();
    const PointRun run =
        drive_point(ev.result.point, trace, replay.id(), ev.eval, true);
    ctx.book->add(run, now_s() - p0);
    if (!same_result(run.result, ev.result)) {
      ctx.fail("tune: replayed eval " + std::to_string(ev.eval) +
               " differs from its trajectory row");
    }
  }
  std::lock_guard<std::mutex> lock(ctx.book->mutex);
  ctx.book->worker_wall_s += run_s;
  return op;
}

/// One network from its text: parse -> build -> run -> drain -> collect.
OpResult single_op(const Context& ctx, const SingleNet& w,
                   std::size_t op_id) {
  OpResult op;
  Trace* trace = ctx.trace;
  Span op_span(trace, "op", kNone, op_id);
  sweep::SweepPoint point;
  {
    const Span s(trace, "sweep.parse", op_span.id(), op_id);
    point = resolve_single(w, single_text(w, ctx.seed));
  }
  const double p0 = now_s();
  const PointRun run =
      drive_point(point, trace, op_span.id(), op_id, trace != nullptr);
  const double point_s = now_s() - p0;
  op.wall_s = op_span.stop();
  if (ctx.book != nullptr) {
    ctx.book->add(run, point_s);
    std::lock_guard<std::mutex> lock(ctx.book->mutex);
    ctx.book->worker_wall_s += op.wall_s;
  }
  op.sim_s = run.sim_s;
  op.cycles = point.sim_cycles + run.drained;
  op.points = 1;
  op.attempted = run.injected;
  if (!run.result.ok) {
    ctx.fail(std::string(w.name) + ": " + run.result.error);
    op.failed = std::max<std::size_t>(1, run.injected);
    op.attempted = std::max<std::size_t>(1, run.injected);
  } else {
    op.failed = run.injected - std::min(run.injected, run.completed);
    if (!run.quiescent) ctx.fail(std::string(w.name) + ": not quiescent");
  }
  op.digest_text = run_stats_text(run.stats);
  op.rows.push_back(run.result);
  return op;
}

// ---------------------------------------------------------------- setup

/// One set-up: parse the workload text and elaborate its network (the
/// campaign's largest point; the tuner's base configuration).
void setup_once(const std::string& workload, std::uint64_t seed) {
  const compiler::XpipesCompiler xpipes;
  sweep::SweepPoint point;
  if (workload == "campaign_grid") {
    const auto points = sweep::parse_sweep(campaign_text(seed)).points();
    point = *std::max_element(
        points.begin(), points.end(), [](const auto& a, const auto& b) {
          return a.num_switches() < b.num_switches();
        });
  } else if (workload == "tune_mesh5") {
    point = tune::parse_tune(tune_text(seed)).config_point(0);
  } else {
    const SingleNet& w = *find_single(workload);
    point = resolve_single(w, single_text(w, seed));
  }
  compiler::NocSpec spec;
  spec.name = point.label();
  spec.topo = point.build_topology();
  spec.net = point.net;
  xpipes.build_simulation(spec);
}

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Routes and deadlock probes: compute_all_routes, make_vc_policy and
/// check_deadlock are re-run outside any point span (build_simulation
/// repeats them inside noc.build), once per distinct network of the
/// traced points, and charged to every point that builds that network.
void probe_routes(const std::vector<sweep::SweepPoint>& points,
                  Trace* trace, double& routes_s, double& deadlock_s,
                  std::vector<std::string>& problems) {
  std::map<std::string, std::pair<double, double>> cost;
  for (const sweep::SweepPoint& p : points) {
    const std::string key =
        p.topology + " " + std::to_string(p.width) + "x" +
        std::to_string(p.height) + "c" + std::to_string(p.concentration) +
        " " + topology::routing_name(p.net.routing) + " v" +
        std::to_string(p.net.vcs);
    auto it = cost.find(key);
    if (it == cost.end()) {
      const topology::Topology topo = p.build_topology();
      Span r(trace, "topology.routes", kNone, kNone);
      const auto tables = topology::compute_all_routes(topo, p.net.routing);
      const double r_s = r.stop();
      Span d(trace, "topology.deadlock", kNone, kNone);
      const auto policy =
          topology::make_vc_policy(topo, p.net.routing, p.net.vcs);
      const auto report = topology::check_deadlock(topo, tables, policy);
      const double d_s = d.stop();
      if (!report.deadlock_free) problems.push_back("probe: " + key);
      it = cost.emplace(key, std::make_pair(r_s, d_s)).first;
    }
    routes_s += it->second.first;
    deadlock_s += it->second.second;
  }
}

/// Child coverage of every span that has children: the share of the
/// parent's interval that the union of its children covers.
double min_coverage(const std::vector<SpanRec>& spans,
                    std::vector<std::string>& problems) {
  std::map<std::size_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRec& s : spans) {
    if (s.parent != kNone) children[s.parent].emplace_back(s.start, s.end);
  }
  double worst = 1.0;
  for (auto& [parent, kids] : children) {
    const SpanRec& p = spans[parent];
    const double length = p.end - p.start;
    if (length <= 0.0) continue;
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = p.start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, p.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    const double share = covered / length;
    if (share < kMinCoverage) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "trace: children cover %.1f%% of span '%s' (point %lld)",
                    100.0 * share, p.name,
                    p.point == kNone ? -1LL
                                     : static_cast<long long>(p.point));
      problems.push_back(buf);
    }
    worst = std::min(worst, share);
  }
  return worst;
}

void write_spans(const std::vector<SpanRec>& spans, const fs::path& path) {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %lld, \"point\": %lld}%s\n",
                  i, s.name, s.start, s.end,
                  s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                  s.point == kNone ? -1LL : static_cast<long long>(s.point),
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

/// Per-layer metrics of a traced run; `ops` traced operations.
std::vector<Metric> layer_metrics(const std::string& workload,
                                  const std::vector<SpanRec>& spans,
                                  const TraceBook& book, std::size_t ops,
                                  double routes_s, double deadlock_s,
                                  double overhead, double coverage) {
  std::map<std::string, double> total;
  std::vector<double> point_s;
  for (const SpanRec& s : spans) {
    total[s.name] += s.end - s.start;
    if (std::string(s.name) == "point") point_s.push_back(s.end - s.start);
  }
  const double n = static_cast<double>(ops);
  const double sim_s = total["traffic.run"] + total["noc.drain"];
  const double cycles = static_cast<double>(book.cycles);
  const double flits = static_cast<double>(book.link_flits);
  std::vector<Metric> m = {
      {"sweep.parse_s", total["sweep.parse"] / n, "s"},
      {"topology.generate_s", total["topology.generate"] / n, "s"},
      {"topology.routes_s", routes_s / n, "s"},
      {"topology.deadlock_s", deadlock_s / n, "s"},
      {"noc.build_s", total["noc.build"] / n, "s"},
      {"traffic.run_s", total["traffic.run"] / n, "s"},
      {"noc.drain_s", total["noc.drain"] / n, "s"},
      {"traffic.collect_s", total["traffic.collect"] / n, "s"},
      {"noc.teardown_s", total["noc.teardown"] / n, "s"},
      {"sim.host_ns_per_cycle", 1e9 * sim_s / cycles, "ns"},
      {"sim.host_ns_per_flit", 1e9 * sim_s / flits, "ns"},
      {"sim.leapt_frac", static_cast<double>(book.leapt) / cycles, "frac"},
      {"sim.awake_frac",
       book.awake_sum / static_cast<double>(book.points.size()), "frac"},
      {"link.flits", flits / n, "count"},
      {"link.retx", static_cast<double>(book.retx) / n, "count"},
      {"link.useful_frac", 1.0 - static_cast<double>(book.retx) / flits,
       "frac"},
      {"link.credit_stalls", static_cast<double>(book.credit_stalls) / n,
       "count"},
      {"sweep.worker_idle_frac", 1.0 - book.point_busy_s / book.worker_wall_s,
       "frac"},
      {"sweep.point_s_p50", quantile(point_s, 0.5), "s"},
      {"sweep.point_s_p90", quantile(point_s, 0.9), "s"},
      {"trace.overhead_frac", overhead, "frac"},
      {"trace.coverage_min", coverage, "frac"},
  };
  // Layers only some workloads have: reported where they ran.
  for (const char* name : {"synth.estimate", "workload.place",
                           "sweep.checkpoint", "sweep.export"}) {
    if (total.count(name) != 0) {
      m.push_back({std::string(name) + "_s", total[name] / n, "s"});
    }
  }
  if (workload == "tune_mesh5") {
    m.push_back({"tune.stage_s.rungs", book.stage_s[0] / n, "s"});
    m.push_back({"tune.stage_s.climb", book.stage_s[1] / n, "s"});
    m.push_back({"tune.stage_s.saturation", book.stage_s[2] / n, "s"});
  }
  return m;
}

// ----------------------------------------------------------------- main

void usage() {
  std::fprintf(stderr,
               "usage: xbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir>\n"
               "workloads: campaign_grid tune_mesh5");
  for (const SingleNet& w : kSingles) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  fs::path out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      traced = std::string(value) == "1";
    } else if (arg == "--out-dir") {
      out = value;
    } else {
      usage();
      return 2;
    }
  }
  const SingleNet* single = find_single(workload);
  if ((argc % 2) == 0 || out.empty() || !(seconds > 0.0) ||
      (single == nullptr && workload != "campaign_grid" &&
       workload != "tune_mesh5")) {
    usage();
    return 2;
  }
  fs::create_directories(out);

  std::vector<std::string> problems;
  Context ctx;
  ctx.seed = seed;
  ctx.out = out;
  ctx.problems = &problems;

  try {
    // Set-up samples are spread over the window: before each operation
    // enough to keep set-up at kSetupShare of the elapsed time, topped up
    // to kMinSetups at the end. They see the same host conditions as the
    // operations they sit between.
    std::vector<double> setups;
    double setup_total = 0.0;
    auto sample_setup = [&](double target_s, std::size_t min_samples) {
      while (setups.size() < min_samples || setup_total < target_s) {
        const double t0 = now_s();
        setup_once(workload, seed);
        setups.push_back(now_s() - t0);
        setup_total += setups.back();
      }
    };

    Trace trace;
    TraceBook book;
    Context traced_ctx = ctx;
    traced_ctx.trace = &trace;
    traced_ctx.book = &book;
    auto run_op = [&](const Context& c, std::size_t id) {
      if (workload == "campaign_grid") {
        return c.trace != nullptr ? traced_campaign_op(c, id)
                                  : campaign_op(c);
      }
      if (workload == "tune_mesh5") return tune_op(c, id);
      return single_op(c, *single, id);
    };

    // One untimed operation first, so the heap (and the campaign workers'
    // malloc arenas) has grown and the window times steady-state work.
    // Its results are checked like every other operation's.
    std::vector<OpResult> warmup = {run_op(ctx, 0)};

    // Measurement window: whole operations, the last one started only if
    // it is expected to end inside the window.
    std::vector<OpResult> ops;
    std::vector<OpResult> traced_ops;
    const double window_t0 = now_s();
    for (;;) {
      sample_setup(kSetupShare * (now_s() - window_t0), 0);
      ops.push_back(run_op(ctx, ops.size()));
      if (traced) traced_ops.push_back(run_op(traced_ctx, ops.size() - 1));
      std::vector<double> walls;
      for (const auto& op : ops) walls.push_back(op.wall_s);
      for (const auto& op : traced_ops) walls.push_back(op.wall_s);
      const double per_round = median(walls) * (traced ? 2.0 : 1.0);
      if (now_s() - window_t0 + per_round > seconds) break;
    }
    sample_setup(0.0, kMinSetups);

    // Correctness: every operation reproduces the first one's digest and
    // rows; traced rows are bit-identical to untraced ones.
    const OpResult& ref = warmup.front();
    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (const auto* list : {&warmup, &ops, &traced_ops}) {
      for (const OpResult& op : *list) {
        attempted += op.attempted;
        failed += op.failed;
        if (op.digest_text != ref.digest_text) {
          problems.push_back("digest differs between operations");
        }
        bool same = op.rows.size() == ref.rows.size();
        for (std::size_t i = 0; same && i < op.rows.size(); ++i) {
          same = same_result(op.rows[i], ref.rows[i]);
        }
        if (!same) problems.push_back("result rows differ between operations");
      }
    }
    if (failed != 0) problems.push_back(std::to_string(failed) + " failed");

    std::vector<double> walls;
    std::vector<double> cycle_rates;
    for (const OpResult& op : ops) {
      walls.push_back(op.wall_s);
      cycle_rates.push_back(static_cast<double>(op.cycles) /
                            (op.sim_s > 0.0 ? op.sim_s : op.wall_s));
    }
    const double wall = fast_quartile(walls);
    struct rusage usage_now {};
    getrusage(RUSAGE_SELF, &usage_now);
    std::vector<Metric> metrics = {
        {"points_per_s", static_cast<double>(ref.points) / wall, "1/s"},
        {"time_to_result_s", wall, "s"},
        {"sim_cycles_per_s", quantile(cycle_rates, 0.75), "1/s"},
        {"setup_s", fast_quartile(setups), "s"},
        {"peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0,
         "MB"},
    };

    if (traced) {
      double routes_s = 0.0;
      double deadlock_s = 0.0;
      probe_routes(book.points, &trace, routes_s, deadlock_s, problems);
      std::vector<double> traced_walls;
      for (const OpResult& op : traced_ops) traced_walls.push_back(op.wall_s);
      const std::vector<SpanRec> spans = trace.spans();
      const double coverage = min_coverage(spans, problems);
      const auto layers = layer_metrics(
          workload, spans, book, traced_ops.size(), routes_s, deadlock_s,
          fast_quartile(traced_walls) / wall - 1.0, coverage);
      metrics.insert(metrics.end(), layers.begin(), layers.end());
      write_spans(spans, out / "spans.json");
    }

    for (const std::string& p : problems) {
      std::fprintf(stderr, "xbench: %s\n", p.c_str());
    }
    const bool correct = problems.empty();
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"ops\": %zu, "
                "\"digest\": \"%016llx\", \"correct\": %s, "
                "\"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                workload.c_str(), static_cast<unsigned long long>(seed),
                ops.size(),
                static_cast<unsigned long long>(fnv1a(ref.digest_text)),
                correct ? "true" : "false", attempted,
                correct ? failed : attempted);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbench: %s\n", e.what());
    return 1;
  }
}
