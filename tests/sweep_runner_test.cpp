// Campaign execution: jobs=1 vs jobs=8 bit-identical results, failure
// recording, the pool loop's coverage/exception contracts, and
// the parse -> run -> export -> reparse round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/common/error.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"

namespace xpl::sweep {
namespace {

/// Small but real campaign: 8 simulated points, two topologies.
SweepSpec small_campaign() {
  SweepSpec spec;
  spec.name = "unit";
  spec.seed = 3;
  spec.sim_cycles = 300;
  spec.drain_cycles = 5000;
  spec.topologies = {"mesh", "ring"};
  spec.widths = {2, 4};
  spec.heights = {2};
  spec.flit_widths = {32};
  spec.fifo_depths = {4};
  spec.patterns = {"uniform"};
  spec.injection_rates = {0.02, 0.08};
  return spec;
}

TEST(SweepRunner, ResultsBitIdenticalAcrossJobCounts) {
  const SweepSpec spec = small_campaign();
  const ResultTable serial = SweepRunner(1).run(spec);
  const ResultTable parallel = SweepRunner(8).run(spec);

  ASSERT_EQ(serial.size(), spec.num_points());
  ASSERT_EQ(parallel.size(), serial.size());
  EXPECT_GT(serial.num_ok(), 0u);

  // The whole contract at once: identical exports, byte for byte.
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_json(), parallel.to_json());

  // And field-level, so a formatting bug can't mask a sim divergence.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.row(i).ok, parallel.row(i).ok) << i;
    EXPECT_EQ(serial.row(i).transactions, parallel.row(i).transactions)
        << i;
    EXPECT_DOUBLE_EQ(serial.row(i).avg_latency_cycles,
                     parallel.row(i).avg_latency_cycles)
        << i;
    EXPECT_EQ(serial.row(i).link_flits, parallel.row(i).link_flits) << i;
  }
}

TEST(SweepRunner, SimulationActuallyMovedTraffic) {
  SweepSpec spec = small_campaign();
  spec.injection_rates = {0.05};
  spec.topologies = {"mesh"};
  spec.widths = {2};
  const ResultTable table = SweepRunner(2).run(spec);
  ASSERT_EQ(table.size(), 1u);
  const SweepResult& r = table.row(0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.transactions, 0u);
  EXPECT_GT(r.avg_latency_cycles, 0.0);
  EXPECT_GT(r.link_flits, 0u);
  EXPECT_GT(r.area_mm2, 0.0);
  EXPECT_GT(r.power_mw, 0.0);
}

TEST(SweepRunner, InfeasiblePointRecordedNotFatal) {
  SweepSpec spec = small_campaign();
  // 8x8 mesh at 16-bit flits: the route field cannot fit the head flit.
  spec.topologies = {"mesh"};
  spec.widths = {8};
  spec.heights = {8};
  spec.flit_widths = {16};
  spec.injection_rates = {0.02};
  spec.sim_cycles = 10;
  spec.drain_cycles = 10;
  const ResultTable table = SweepRunner(2).run(spec);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.row(0).ok);
  EXPECT_FALSE(table.row(0).error.empty());
  EXPECT_EQ(table.num_ok(), 0u);
}

TEST(SweepRunner, RunIndexedCoversEveryIndexOnce) {
  const std::size_t n = 100;
  std::vector<std::atomic<int>> hits(n);
  SweepRunner(8).run_indexed(
      n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(SweepRunner, RunIndexedPropagatesException) {
  EXPECT_THROW(SweepRunner(4).run_indexed(10,
                                          [](std::size_t i) {
                                            if (i == 7) throw Error("boom");
                                          }),
               Error);
}

TEST(SweepRunner, ParseRunExportReparseRoundTrip) {
  const char* text =
      "sweep rt\n"
      "seed 11\n"
      "cycles 200\n"
      "drain 3000\n"
      "topology mesh\n"
      "width 2\n"
      "height 2\n"
      "flit_width 32 64\n"
      "injection_rate 0.03\n";
  const SweepSpec spec = parse_sweep(text);
  const ResultTable first = SweepRunner(2).run(spec);

  // Round-trip the spec through its canonical form and rerun: the
  // exports must match byte for byte.
  const SweepSpec reparsed = parse_sweep(write_sweep(spec));
  const ResultTable second = SweepRunner(1).run(reparsed);
  EXPECT_EQ(first.to_csv(), second.to_csv());
  EXPECT_EQ(first.to_json(), second.to_json());
}

}  // namespace
}  // namespace xpl::sweep
