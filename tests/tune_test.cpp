// xtune subsystem: .tune parsing and canonical round-trip, objective
// scoring, config-space decoding and paired seeding, tuner determinism
// across job counts, budget enforcement, adaptive saturation search vs a
// dense reference scan (accuracy and evaluation-count advantage), and
// emitted-.noc fidelity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "src/common/error.hpp"
#include "src/compiler/spec_io.hpp"
#include "src/sweep/runner.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/tune/saturation.hpp"
#include "src/tune/spec.hpp"
#include "src/tune/tuner.hpp"

namespace xpl::tune {
namespace {

constexpr const char* kSpecText = R"(# comment
tune scan             # trailing comment
seed 9
cycles 400
drain 8000
warmup 0
budget 32
rate 0.08
target_mhz 900
objective latency 1 throughput 2 area 0.5
topology mesh
width 2
height 2
flit_width 32
pattern uniform
search fifo_depth 2 4
search flow ack_nack credit
saturation 0.05 0.8 0.01
)";

/// Runs `cmd` with stdout and stderr captured; returns {exit code, output}.
std::pair<int, std::string> run_tool(const std::string& cmd,
                                     const std::string& tag) {
  const std::string log = ::testing::TempDir() + "/" + tag + ".log";
  const int status = std::system((cmd + " > " + log + " 2>&1").c_str());
  std::ostringstream out;
  out << std::ifstream(log).rdbuf();
  std::remove(log.c_str());
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out.str()};
}

TEST(TuneSpec, XtuneRejectsAMistypedNumericFlag) {
  const std::string spec = ::testing::TempDir() + "/xpl_flag.tune";
  std::ofstream(spec) << kSpecText;
  const auto [code, out] =
      run_tool(std::string(XPL_XTUNE) + " " + spec + " --jobs 4x", "xpl_j");
  EXPECT_EQ(code, 2) << out;
  EXPECT_EQ(out, "xtune: --jobs: bad number '4x'\n");
  std::remove(spec.c_str());
}

TEST(TuneSpec, ParsesEveryDirective) {
  const TuneSpec spec = parse_tune(kSpecText);
  EXPECT_EQ(spec.name, "scan");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.sim_cycles, 400u);
  EXPECT_EQ(spec.drain_cycles, 8000u);
  EXPECT_EQ(spec.budget, 32u);
  EXPECT_DOUBLE_EQ(spec.rate, 0.08);
  EXPECT_DOUBLE_EQ(spec.objective.latency, 1.0);
  EXPECT_DOUBLE_EQ(spec.objective.throughput, 2.0);
  EXPECT_DOUBLE_EQ(spec.objective.area, 0.5);
  EXPECT_DOUBLE_EQ(spec.objective.p95, 0.0);  // unmentioned keys reset
  EXPECT_EQ(spec.fifo_depths, (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(spec.flows, (std::vector<std::string>{"ack_nack", "credit"}));
  EXPECT_EQ(spec.vcss, (std::vector<std::size_t>{1}));  // unsearched axis
  EXPECT_EQ(spec.num_configs(), 4u);
  EXPECT_TRUE(spec.saturation.enabled);
  EXPECT_DOUBLE_EQ(spec.saturation.lo, 0.05);
  EXPECT_DOUBLE_EQ(spec.saturation.hi, 0.8);
}

TEST(TuneSpec, CanonicalRoundTrip) {
  const TuneSpec spec = parse_tune(kSpecText);
  const std::string canonical = write_tune(spec);
  const TuneSpec reparsed = parse_tune(canonical);
  EXPECT_EQ(write_tune(reparsed), canonical);
  EXPECT_EQ(reparsed.num_configs(), spec.num_configs());
  EXPECT_DOUBLE_EQ(reparsed.saturation.rel_tol, spec.saturation.rel_tol);
}

void expect_tune_line_error(const std::string& text, std::size_t line) {
  try {
    parse_tune(text);
    FAIL() << "expected Error for: " << text;
  } catch (const Error& e) {
    const std::string prefix = "tune line " + std::to_string(line) + ":";
    EXPECT_NE(std::string(e.what()).find(prefix), std::string::npos)
        << "message '" << e.what() << "' lacks '" << prefix << "'";
  }
}

TEST(TuneSpec, MalformedLinesReportTheirLineNumber) {
  const std::string ok = "tune x\nseed 1\n";
  expect_tune_line_error(ok + "bogus 1\n", 3);
  expect_tune_line_error(ok + "seed nope\n", 3);
  expect_tune_line_error(ok + "budget\n", 3);
  expect_tune_line_error(ok + "topology klein_bottle\n", 3);
  expect_tune_line_error(ok + "objective latency\n", 3);  // odd pair
  expect_tune_line_error(ok + "objective speed 1\n", 3);  // unknown key
  expect_tune_line_error(ok + "search turbo 1 2\n", 3);   // unknown axis
  expect_tune_line_error(ok + "search vcs 99\n", 3);
  expect_tune_line_error(ok + "search flow sideband\n", 3);
  expect_tune_line_error(ok + "search routing zigzag\n", 3);
  expect_tune_line_error(ok + "saturation 0.1 0.5\n", 3);  // arity
  expect_tune_line_error(ok + "max_burst 4294967297\n", 3);  // truncated
  expect_tune_line_error(ok + "read_fraction 7\n", 3);
  expect_tune_line_error(ok + "read_fraction nan\n", 3);
  expect_tune_line_error(ok + "target_mhz -inf\n", 3);
  expect_tune_line_error(ok + "target_mhz 0\n", 3);
  expect_tune_line_error(ok + "rate inf\n", 3);  // was caught by validate()
  // Single-line value rules fail at their line, like the token rules.
  expect_tune_line_error(ok + "pattern bogus\n", 3);
  expect_tune_line_error(ok + "pattern app:nonesuch\n", 3);
  expect_tune_line_error(ok + "rate 0\n", 3);
  expect_tune_line_error(ok + "objective latency 0\n", 3);  // all-zero
  expect_tune_line_error(ok + "saturation 0.5 0.1 0.01\n", 3);  // lo > hi
}

TEST(TuneSpec, ValidateRejectsBadValues) {
  EXPECT_THROW(parse_tune("budget 0\n"), Error);
  // The one cross-line rule, left to validate().
  EXPECT_THROW(parse_tune("cycles 100\nwarmup 100\n"), Error);
  TuneSpec spec;
  spec.pattern = "bogus";  // in-memory specs reject the same tokens
  EXPECT_THROW(spec.validate(), Error);
}

TEST(TuneSpec, AcceptsTheSweepTopologyTokensIncludingCmesh) {
  const TuneSpec spec = parse_tune(
      "tune cm\ntopology cmesh\nwidth 2\nheight 2\nsearch fifo_depth 2 "
      "4\n");
  const sweep::SweepPoint p = spec.config_point(0);
  EXPECT_EQ(p.topology, "cmesh");
  EXPECT_EQ(p.concentration, 4u);  // the .sweep default
  const std::string canonical = write_tune(spec);
  EXPECT_NE(canonical.find("topology cmesh\n"), std::string::npos);
  EXPECT_EQ(write_tune(parse_tune(canonical)), canonical);
}

TEST(Objective, ScoresWeightedSumAndFailedPoints) {
  sweep::SweepResult r;
  r.ok = true;
  r.avg_latency_cycles = 40.0;
  r.p95_latency_cycles = 90.0;
  r.throughput_tpc = 1.5;
  r.area_mm2 = 4.0;
  r.power_mw = 250.0;
  Objective o;
  o.latency = 1.0;
  o.p95 = 0.1;
  o.throughput = 2.0;
  o.area = 0.5;
  o.power = 0.01;
  EXPECT_DOUBLE_EQ(o.score(r),
                   40.0 + 9.0 - 3.0 + 2.0 + 2.5);
  r.ok = false;
  EXPECT_EQ(o.score(r), std::numeric_limits<double>::infinity());
}

TEST(TuneSpec, ConfigIdsDecodeAndRoundTrip) {
  TuneSpec spec;
  spec.fifo_depths = {2, 4, 8};
  spec.vcss = {1, 2};
  spec.flows = {"ack_nack", "credit"};
  spec.routings = {"auto", "minimal"};
  ASSERT_EQ(spec.num_configs(), 24u);
  // fifo innermost: consecutive ids step the fifo index first.
  EXPECT_EQ(spec.config_indices(0).fifo, 0u);
  EXPECT_EQ(spec.config_indices(1).fifo, 1u);
  EXPECT_EQ(spec.config_indices(3).vcs, 1u);
  EXPECT_EQ(spec.config_indices(23).routing, 1u);
  for (std::size_t c = 0; c < spec.num_configs(); ++c) {
    EXPECT_EQ(spec.config_id(spec.config_indices(c)), c);
  }
  EXPECT_EQ(spec.config_label(0), "q2_v1_ack_nack_auto");
  EXPECT_EQ(spec.config_label(23), "q8_v2_credit_minimal");
  EXPECT_THROW(spec.config_indices(24), Error);
}

TEST(TuneSpec, ConfigPointsArePairedOnSeeds) {
  const TuneSpec spec = parse_tune(kSpecText);
  const sweep::SweepPoint a = spec.config_point(0);
  const sweep::SweepPoint b = spec.config_point(3);
  // Different microarchitecture...
  EXPECT_NE(a.net.output_fifo_depth, b.net.output_fifo_depth);
  EXPECT_NE(a.net.flow, b.net.flow);
  // ...identical derived seeds: paired evaluation, same traffic stream.
  EXPECT_EQ(a.net.seed, b.net.seed);
  EXPECT_EQ(a.traffic.seed, b.traffic.seed);
  EXPECT_DOUBLE_EQ(a.traffic.injection_rate, spec.rate);
}

/// Small tuning problem for the strategy tests: 4 configs on a 2x2 mesh.
TuneSpec tiny_tune() {
  TuneSpec spec;
  spec.name = "tiny";
  spec.seed = 3;
  spec.sim_cycles = 300;
  spec.drain_cycles = 8000;
  spec.budget = 24;
  spec.rate = 0.08;
  spec.width = 2;
  spec.height = 2;
  spec.fifo_depths = {2, 4};
  spec.flows = {"ack_nack", "credit"};
  spec.objective.latency = 1.0;
  spec.objective.area = 0.2;
  return spec;
}

TEST(Tuner, DeterministicAcrossJobCounts) {
  const TuneSpec spec = tiny_tune();
  const sweep::SweepRunner serial(1);
  const sweep::SweepRunner parallel(8);
  const TuneReport a = Tuner(serial).run(spec);
  const TuneReport b = Tuner(parallel).run(spec);
  // Byte-identical trajectory exports: same points, same order, same
  // winner — scheduling never leaks into the tuning decisions.
  EXPECT_EQ(a.trajectory_csv(), b.trajectory_csv());
  EXPECT_EQ(a.trajectory_json(), b.trajectory_json());
  ASSERT_NE(a.best, TuneReport::npos);
  EXPECT_EQ(a.winner().config, b.winner().config);
  EXPECT_EQ(a.pareto, b.pareto);
}

TEST(Tuner, SuccessiveHalvingThinsTheFieldAndWinnerIsFullFidelity) {
  const TuneSpec spec = tiny_tune();
  const sweep::SweepRunner runner(2);
  const TuneReport report = Tuner(runner).run(spec);

  std::size_t rung0 = 0, rung1 = 0, full = 0;
  for (const TuneEval& ev : report.trajectory) {
    if (ev.stage == "rung0") {
      ++rung0;
      EXPECT_EQ(ev.cycles, spec.sim_cycles / 4);
    } else if (ev.stage == "rung1") {
      ++rung1;
      EXPECT_EQ(ev.cycles, spec.sim_cycles / 2);
    }
    if (ev.cycles == spec.sim_cycles) ++full;
  }
  EXPECT_EQ(rung0, spec.num_configs());  // first rung sees everyone
  EXPECT_EQ(rung1, (spec.num_configs() + 1) / 2);
  EXPECT_GE(full, 1u);
  ASSERT_NE(report.best, TuneReport::npos);
  EXPECT_EQ(report.trajectory[report.best].cycles, spec.sim_cycles);
  EXPECT_TRUE(report.trajectory[report.best].result.ok);
  EXPECT_FALSE(report.budget_exhausted);
  EXPECT_LE(report.trajectory.size(), spec.budget);
  // The Pareto front lives on full-fidelity evaluations only.
  for (const std::size_t i : report.pareto) {
    EXPECT_EQ(report.trajectory[i].cycles, spec.sim_cycles);
    EXPECT_TRUE(report.trajectory[i].result.ok);
  }
}

TEST(Tuner, BudgetIsAHardCeiling) {
  TuneSpec spec = tiny_tune();
  spec.budget = 3;  // less than one full rung
  const sweep::SweepRunner runner(1);
  const TuneReport report = Tuner(runner).run(spec);
  EXPECT_EQ(report.trajectory.size(), 3u);
  EXPECT_TRUE(report.budget_exhausted);
}

TEST(Tuner, EmittedSpecReSimulatesIdentically) {
  const TuneSpec spec = tiny_tune();
  const sweep::SweepRunner runner(2);
  const TuneReport report = Tuner(runner).run(spec);
  ASSERT_NE(report.best, TuneReport::npos);
  const TuneEval& winner = report.winner();

  // Emission fidelity: round-trip the winner through .noc *text*, rebuild
  // from the parsed spec, re-simulate, and demand the recorded metrics —
  // the library-level version of `xtune --verify`.
  const std::string text =
      compiler::write_spec(to_noc_spec(spec, winner.config));
  compiler::NocSpec parsed = compiler::parse_spec(text);
  EXPECT_EQ(compiler::write_spec(parsed), text);  // canonical

  const sweep::SweepPoint p = spec.config_point(winner.config);
  EXPECT_EQ(parsed.net.output_fifo_depth, p.net.output_fifo_depth);
  EXPECT_EQ(parsed.net.flow, p.net.flow);
  parsed.net.seed = p.net.seed;  // a .noc deliberately carries no seed
  parsed.net.max_outstanding = p.net.max_outstanding;
  parsed.net.slave_latency = p.net.slave_latency;

  const compiler::XpipesCompiler xpipes;
  const auto network = xpipes.build_simulation(parsed);
  traffic::TrafficDriver driver(*network, p.traffic);
  driver.run(p.sim_cycles);
  network->run_until_quiescent(p.drain_cycles);
  const auto stats =
      traffic::collect_run(*network, p.sim_cycles, p.warmup);
  EXPECT_EQ(stats.transactions, winner.result.transactions);
  EXPECT_DOUBLE_EQ(stats.latency.mean, winner.result.avg_latency_cycles);
  EXPECT_DOUBLE_EQ(stats.throughput, winner.result.throughput_tpc);
}

TEST(SaturationSearch, RejectsBadBrackets) {
  const TuneSpec spec = tiny_tune();
  const sweep::SweepPoint base = spec.config_point(0);
  SaturationConfig bad;
  bad.enabled = true;
  bad.lo = 0.5;
  bad.hi = 0.1;
  EXPECT_THROW(SaturationSearch(base, bad), Error);
  bad.lo = 0.1;
  bad.hi = 0.5;
  bad.rel_tol = 0.0;
  EXPECT_THROW(SaturationSearch(base, bad), Error);
  bad.rel_tol = 0.01;
  bad.latency_blowup = 1.0;
  EXPECT_THROW(SaturationSearch(base, bad), Error);
}

TEST(SaturationSearch, PredicateIsTheLatencyKnee) {
  // Saturated = mean latency above blowup x the calibration latency.
  EXPECT_FALSE(SaturationSearch::saturated(50.0, 20.0, 3.0));
  EXPECT_FALSE(SaturationSearch::saturated(60.0, 20.0, 3.0));  // exactly 3x
  EXPECT_TRUE(SaturationSearch::saturated(61.0, 20.0, 3.0));
}

TEST(SaturationSearch, MatchesDenseReferenceWithFarFewerSimulations) {
  // The acceptance bar from the bench table: the bisection locates the
  // saturation knee within one rel_tol step of a dense scan that applies
  // the *same* predicate, using >= 5x fewer simulations. The network and
  // window match bench/fig_tune_convergence.cpp — the 90%-of-linear
  // predicate needs a statistically meaningful transaction count per
  // probe, which the 2x2/300-cycle fixture above cannot provide.
  TuneSpec tspec;
  tspec.name = "sat_acceptance";
  tspec.seed = 5;
  tspec.sim_cycles = 1500;
  tspec.drain_cycles = 40000;
  tspec.width = 4;
  tspec.height = 4;
  const sweep::SweepPoint base = tspec.config_point(0);
  SaturationConfig cfg;
  cfg.enabled = true;
  cfg.lo = 0.02;
  cfg.hi = 0.64;
  cfg.rel_tol = 0.01;

  // Adaptive search.
  const sweep::SweepRunner runner(1);
  SaturationSearch search(base, cfg);
  runner.run_adaptive(search);
  ASSERT_TRUE(search.converged());
  ASSERT_TRUE(search.error().empty()) << search.error();
  const double adaptive_rate = search.saturation_rate();
  const std::size_t adaptive_evals = search.evaluations();

  // Dense reference: every rate on a rel_tol-spaced grid, shared
  // calibration at lo, shared saturated() predicate.
  auto lat_at = [&](double rate) {
    sweep::SweepPoint p = base;
    p.traffic.injection_rate = rate;
    const sweep::SweepResult r = sweep::SweepRunner::run_point(p);
    EXPECT_TRUE(r.ok) << r.error;
    return r.avg_latency_cycles;
  };
  const double step = cfg.rel_tol * cfg.hi;
  const double lat_lo = lat_at(cfg.lo);
  ASSERT_GT(lat_lo, 0.0);
  std::size_t dense_evals = 1;  // the calibration run
  double dense_last_unsat = cfg.lo;
  double dense_first_sat = 0.0;
  for (double rate = cfg.lo + step; rate <= cfg.hi + 1e-12; rate += step) {
    const double lat = lat_at(rate);
    ++dense_evals;
    if (SaturationSearch::saturated(lat, lat_lo, cfg.latency_blowup)) {
      dense_first_sat = rate;
      break;
    }
    dense_last_unsat = rate;
  }
  ASSERT_GT(dense_first_sat, 0.0)
      << "network never saturated in the bracket; widen it";

  // Accuracy: the bisected rate falls inside (or within one grid step
  // of) the dense scan's [last unsaturated, first saturated] bracket.
  EXPECT_GE(adaptive_rate, dense_last_unsat - step - 1e-12);
  EXPECT_LE(adaptive_rate, dense_first_sat + 1e-12);

  // Economy: >= 5x fewer simulations than covering the grid up to the
  // knee would need to *guarantee* the same resolution over the bracket.
  const std::size_t dense_grid =
      static_cast<std::size_t>((cfg.hi - cfg.lo) / step) + 1;
  EXPECT_GE(dense_grid, adaptive_evals * 5)
      << "adaptive took " << adaptive_evals << " of a " << dense_grid
      << "-point grid";
  // And in this instance it also beat the scan-to-knee count.
  EXPECT_LT(adaptive_evals, dense_evals);
}

TEST(Tuner, SaturationPhaseRunsAfterSearchAndIsReported) {
  TuneSpec spec = tiny_tune();
  spec.budget = 40;  // rungs + climb + the full bisection must all fit
  spec.saturation.enabled = true;
  spec.saturation.lo = 0.05;
  spec.saturation.hi = 0.8;
  spec.saturation.rel_tol = 0.02;
  const sweep::SweepRunner runner(2);
  const TuneReport report = Tuner(runner).run(spec);
  ASSERT_NE(report.best, TuneReport::npos);
  EXPECT_TRUE(report.saturation_converged);
  EXPECT_GT(report.saturation_evals, 0u);
  EXPECT_GE(report.saturation_rate, spec.saturation.lo);
  EXPECT_LE(report.saturation_rate, spec.saturation.hi);
  // Saturation probes ride at the end of the trajectory, at full
  // fidelity, tagged with the winner's config.
  bool saw_sat = false;
  for (const TuneEval& ev : report.trajectory) {
    if (ev.stage != "saturation") {
      EXPECT_FALSE(saw_sat) << "saturation probes must come last";
      continue;
    }
    saw_sat = true;
    EXPECT_EQ(ev.config, report.winner().config);
    EXPECT_EQ(ev.cycles, spec.sim_cycles);
  }
  EXPECT_TRUE(saw_sat);
}

}  // namespace
}  // namespace xpl::tune
