// Sweep specification: parsing, canonical round-trip, grid decoding,
// deterministic sampling and seed derivation; Pareto-front extraction on
// hand-built fixtures.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>

#include "src/common/error.hpp"
#include "src/sweep/pareto.hpp"
#include "src/sweep/result.hpp"
#include "src/sweep/spec.hpp"

namespace xpl::sweep {
namespace {

constexpr const char* kSpecText = R"(# comment line
sweep scan            # trailing comment
seed 9
cycles 400
drain 2000
samples 0
target_mhz 900
read_fraction 0.25
max_burst 4
topology mesh ring
width 2 3
height 2
flit_width 32 64
fifo_depth 2 8
pattern uniform hotspot
injection_rate 0.01 0.05
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

TEST(SweepSpec, XsweepRejectsAMistypedNumericFlag) {
  // `--jobs x` used to run with the default job count.
  const std::string spec = ::testing::TempDir() + "/xpl_flag.sweep";
  std::ofstream(spec) << kSpecText;
  const std::string xsweep = std::string(XPL_XSWEEP) + " " + spec;
  auto [code, out] = run_tool(xsweep + " --jobs x", "xpl_jobs");
  EXPECT_EQ(code, 2) << out;
  EXPECT_EQ(out, "xsweep: --jobs: bad number 'x'\n");
  std::tie(code, out) = run_tool(xsweep + " --max-hw-threads 0", "xpl_hw");
  EXPECT_EQ(code, 2) << out;
  EXPECT_EQ(out,
            "xsweep: --max-hw-threads: value 0 out of range [1, 256]\n");
  std::tie(code, out) = run_tool(xsweep + " --halt-after -1", "xpl_halt");
  EXPECT_EQ(code, 2) << out;
  EXPECT_EQ(out, "xsweep: --halt-after: bad number '-1'\n");
  std::remove(spec.c_str());
}

TEST(SweepSpec, ParsesEveryDirective) {
  const SweepSpec spec = parse_sweep(kSpecText);
  EXPECT_EQ(spec.name, "scan");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.sim_cycles, 400u);
  EXPECT_EQ(spec.drain_cycles, 2000u);
  EXPECT_EQ(spec.samples, 0u);
  EXPECT_DOUBLE_EQ(spec.target_mhz, 900.0);
  EXPECT_DOUBLE_EQ(spec.read_fraction, 0.25);
  EXPECT_EQ(spec.max_burst, 4u);
  EXPECT_EQ(spec.topologies, (std::vector<std::string>{"mesh", "ring"}));
  EXPECT_EQ(spec.widths, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(spec.flit_widths, (std::vector<std::size_t>{32, 64}));
  EXPECT_EQ(spec.fifo_depths, (std::vector<std::size_t>{2, 8}));
  EXPECT_EQ(spec.patterns, (std::vector<std::string>{"uniform", "hotspot"}));
  EXPECT_EQ(spec.injection_rates, (std::vector<double>{0.01, 0.05}));
  EXPECT_EQ(spec.grid_size(), 2u * 2 * 1 * 2 * 2 * 2 * 2);
}

TEST(SweepSpec, CanonicalRoundTrip) {
  const SweepSpec spec = parse_sweep(kSpecText);
  const std::string canonical = write_sweep(spec);
  const SweepSpec reparsed = parse_sweep(canonical);
  EXPECT_EQ(write_sweep(reparsed), canonical);
  EXPECT_EQ(reparsed.grid_size(), spec.grid_size());
  EXPECT_EQ(reparsed.injection_rates, spec.injection_rates);
}

TEST(SweepSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_sweep("bogus_directive 1\n"), Error);
  EXPECT_THROW(parse_sweep("seed nope\n"), Error);
  EXPECT_THROW(parse_sweep("topology klein_bottle\n"), Error);
  EXPECT_THROW(parse_sweep("pattern weighted\n"), Error);  // needs weights
  EXPECT_THROW(parse_sweep("flit_width\n"), Error);        // empty axis
}

/// Asserts parse_sweep rejects `text` and that the message names the
/// offending line.
void expect_line_error(const std::string& text, std::size_t line) {
  try {
    parse_sweep(text);
    FAIL() << "expected Error for: " << text;
  } catch (const Error& e) {
    const std::string prefix = "sweep line " + std::to_string(line) + ":";
    EXPECT_NE(std::string(e.what()).find(prefix), std::string::npos)
        << "message '" << e.what() << "' lacks '" << prefix << "'";
  }
}

TEST(SweepSpec, MalformedLinesReportTheirLineNumber) {
  // Each spec puts the broken directive on line 3 (after two valid ones).
  const std::string ok = "sweep x\nseed 1\n";
  expect_line_error(ok + "bogus_directive 1\n", 3);     // unknown axis/key
  expect_line_error(ok + "seed nope\n", 3);             // bad number
  expect_line_error(ok + "cycles\n", 3);                // missing value
  expect_line_error(ok + "topology klein_bottle\n", 3); // unknown value
  expect_line_error(ok + "flow sideband\n", 3);         // unknown protocol
  expect_line_error(ok + "routing zigzag\n", 3);        // unknown routing
  expect_line_error(ok + "scheduler gated_full\n", 3);  // unknown kernel
  expect_line_error(ok + "vcs 99\n", 3);                // out of range
  expect_line_error(ok + "vcs 0\n", 3);                 // out of range
  expect_line_error(ok + "burstiness 1.5\n", 3);        // out of range
  expect_line_error(ok + "injection_rate 2\n", 3);      // out of range
  expect_line_error(ok + "max_burst 4294967297\n", 3);  // was truncated
  expect_line_error(ok + "injection_rate nan\n", 3);    // not finite
  expect_line_error(ok + "read_fraction 7\n", 3);       // out of range
  expect_line_error(ok + "target_mhz -inf\n", 3);       // not finite
  expect_line_error(ok + "target_mhz 0\n", 3);          // out of range
  // The line number counts comments and blanks too.
  expect_line_error("sweep x\n# comment\n\nvcs 99\n", 4);
}

TEST(SweepSpec, GridDecodeCoversCrossProductInOrder) {
  SweepSpec spec;
  spec.widths = {2, 3};
  spec.heights = {2};
  spec.flit_widths = {32, 64};
  spec.injection_rates = {0.01, 0.05};
  ASSERT_EQ(spec.num_points(), 8u);

  // Innermost axis is the injection rate.
  EXPECT_DOUBLE_EQ(spec.point(0).traffic.injection_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.point(1).traffic.injection_rate, 0.05);
  EXPECT_EQ(spec.point(0).net.flit_width, 32u);
  EXPECT_EQ(spec.point(2).net.flit_width, 64u);
  EXPECT_EQ(spec.point(0).width, 2u);
  EXPECT_EQ(spec.point(4).width, 3u);

  // Every grid cell appears exactly once.
  std::set<std::string> labels;
  for (const auto& p : spec.points()) {
    EXPECT_EQ(p.index, labels.size());
    labels.insert(p.label());
  }
  EXPECT_EQ(labels.size(), 8u);
}

TEST(SweepSpec, SeedsDifferPerPointAndPerStream) {
  SweepSpec spec;
  spec.injection_rates = {0.01, 0.05};
  const SweepPoint a = spec.point(0);
  const SweepPoint b = spec.point(1);
  EXPECT_NE(a.net.seed, b.net.seed);
  EXPECT_NE(a.traffic.seed, b.traffic.seed);
  EXPECT_NE(a.net.seed, a.traffic.seed);
  // Deterministic: same spec, same seeds.
  EXPECT_EQ(spec.point(0).net.seed, a.net.seed);
}

TEST(SweepSpec, SampledSubsetIsDeterministicAndGridStable) {
  SweepSpec spec;
  spec.widths = {2, 3, 4};
  spec.flit_widths = {16, 32, 64};
  spec.injection_rates = {0.01, 0.02, 0.05};
  ASSERT_EQ(spec.grid_size(), 27u);

  SweepSpec sampled = spec;
  sampled.samples = 7;
  ASSERT_EQ(sampled.num_points(), 7u);

  // Same spec -> same subset, all points distinct.
  std::set<std::string> labels;
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 7; ++i) {
    const SweepPoint p = sampled.point(i);
    EXPECT_EQ(sampled.point(i).label(), p.label());
    labels.insert(p.label());
    seeds.insert(p.net.seed);
  }
  EXPECT_EQ(labels.size(), 7u);
  EXPECT_EQ(seeds.size(), 7u);

  // A sampled point's seeds depend on its grid cell, not its campaign
  // position: every sampled seed also occurs in the full grid.
  std::set<std::uint64_t> full_seeds;
  for (const auto& p : spec.points()) full_seeds.insert(p.net.seed);
  for (const std::uint64_t s : seeds) EXPECT_TRUE(full_seeds.count(s));
}

TEST(SweepSpec, TopologySwitchCounts) {
  SweepPoint p;
  p.width = 3;
  p.height = 2;
  p.topology = "mesh";
  EXPECT_EQ(p.num_switches(), 6u);
  EXPECT_EQ(p.build_topology().num_switches(), 6u);
  p.topology = "star";
  EXPECT_EQ(p.num_switches(), 4u);  // hub + 3 leaves
  EXPECT_EQ(p.build_topology().num_switches(), 4u);
  p.topology = "spidergon";
  EXPECT_EQ(p.num_switches(), 4u);  // rounded up to even
  p.topology = "ring";
  EXPECT_EQ(p.num_switches(), 3u);
}

TEST(Pareto, MinimizationFrontOnFixture) {
  // d dominated by a; the rest trade off.
  const std::vector<std::vector<double>> objectives{
      {1.0, 9.0},  // a
      {2.0, 5.0},  // b
      {4.0, 1.0},  // c
      {3.0, 9.5},  // d (worse than a on both)
  };
  EXPECT_EQ(pareto_front_min(objectives),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Pareto, EqualPointsBothSurvive) {
  const std::vector<std::vector<double>> objectives{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_EQ(pareto_front_min(objectives), (std::vector<std::size_t>{0, 1}));
}

/// Hand-built ResultTable fixture: front must minimize latency/area/power
/// and maximize throughput, skipping failed rows.
TEST(Pareto, ResultTableFrontOnFixture) {
  auto mk = [](std::size_t index, double lat, double thru, double area,
               double power, bool ok = true) {
    SweepResult r;
    r.point.index = index;
    r.ok = ok;
    r.avg_latency_cycles = lat;
    r.throughput_tpc = thru;
    r.area_mm2 = area;
    r.power_mw = power;
    return r;
  };
  ResultTable table(5);
  table.set(mk(0, 20.0, 0.10, 1.0, 50.0));   // small & slow — survives
  table.set(mk(1, 10.0, 0.20, 2.0, 80.0));   // fast & big — survives
  table.set(mk(2, 21.0, 0.09, 1.1, 51.0));   // dominated by 0
  table.set(mk(3, 10.0, 0.20, 2.0, 79.0));   // dominates 1 on power
  table.set(mk(4, 1.0, 9.0, 0.1, 1.0, false));  // failed: excluded
  EXPECT_EQ(table.pareto_front(), (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(table.num_ok(), 4u);
}

}  // namespace
}  // namespace xpl::sweep
