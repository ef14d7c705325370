// Workload layer: benchmark registry, trace format round-trips, and the
// record -> replay determinism contract (DESIGN.md §5).
#include <gtest/gtest.h>

#include <fstream>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/benchmarks.hpp"
#include "src/workload/trace.hpp"

namespace xpl::workload {
namespace {

std::unique_ptr<noc::Network> make_net(std::uint64_t seed = 1) {
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  cfg.seed = seed;
  return std::make_unique<noc::Network>(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);
}

TEST(Benchmarks, RegistryListsTheClassicThree) {
  EXPECT_EQ(benchmark_names(),
            (std::vector<std::string>{"mpeg4", "vopd", "mwd"}));
  for (const auto& name : benchmark_names()) {
    EXPECT_TRUE(is_benchmark(name));
    const auto graph = benchmark(name);
    EXPECT_EQ(graph.name(), name);
    EXPECT_EQ(graph.num_cores(), 12u);
    EXPECT_GT(graph.flows().size(), 0u);
    EXPECT_GT(graph.total_bandwidth(), 0.0);
  }
  EXPECT_FALSE(is_benchmark("doom"));
  EXPECT_THROW(benchmark("doom"), Error);
}

TEST(Benchmarks, WeightsPreserveBandwidthAndShape) {
  const auto graph = benchmark("mpeg4");
  const auto topo =
      topology::make_mesh(4, 3, topology::NiPlan::uniform(12, 1, 1));
  const auto weights = benchmark_weights(graph, topo);
  ASSERT_EQ(weights.size(), 12u);
  double total = 0;
  for (const auto& row : weights) {
    ASSERT_EQ(row.size(), 12u);
    for (const double w : row) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
  }
  EXPECT_DOUBLE_EQ(total, graph.total_bandwidth());
  // Deterministic: same inputs, same matrix.
  EXPECT_EQ(weights, benchmark_weights(graph, topo));
}

TEST(Benchmarks, WeightsRequireNisOnEverySwitch) {
  const auto graph = benchmark("mwd");
  const auto bare =
      topology::make_mesh(4, 3, topology::NiPlan::uniform(12, 0, 0));
  EXPECT_THROW(benchmark_weights(graph, bare), Error);
}

TEST(TraceFormat, ParsesHeaderAndEntries) {
  const Trace t = parse_trace(
      "# captured trace\n"
      "trace demo\n"
      "initiators 4\n"
      "targets 4   # full mesh\n"
      "0 0 1 read 0 1\n"
      "5 1 2 write 16 2\n"
      "9 3 0 writenp 8 1\n");
  EXPECT_EQ(t.name, "demo");
  EXPECT_EQ(t.initiators, 4u);
  EXPECT_EQ(t.targets, 4u);
  ASSERT_EQ(t.entries.size(), 3u);
  EXPECT_EQ(t.entries[1].cmd, ocp::Cmd::kWrite);
  EXPECT_EQ(t.entries[1].burst, 2u);
}

TEST(TraceFormat, HeaderlessBodyIsLegacyCompatible) {
  // A bare entry body (the traffic/ trace format) parses with an
  // unconstrained shape.
  const Trace t = parse_trace("0 0 1 read 0 1\n4 1 0 write 8 1\n");
  EXPECT_EQ(t.initiators, 0u);
  EXPECT_EQ(t.targets, 0u);
  EXPECT_EQ(t.entries.size(), 2u);
}

/// Asserts parse_trace rejects `text` with an error that starts
/// "trace line <line>:".
void expect_trace_line_error(const std::string& text, std::size_t line) {
  try {
    parse_trace(text);
    FAIL() << "expected xpl::Error for: " << text;
  } catch (const Error& e) {
    const std::string prefix = "trace line " + std::to_string(line) + ":";
    EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
        << "message '" << e.what() << "' does not start with '" << prefix
        << "'";
  }
}

TEST(TraceFormat, RejectsMalformed) {
  EXPECT_THROW(parse_trace("trace\n"), Error);          // missing value
  EXPECT_THROW(parse_trace("initiators x\n"), Error);   // bad count
  EXPECT_THROW(parse_trace("initiators 4294967296\n"),
               Error);                                  // count overflow
  EXPECT_THROW(parse_trace("initators 12\n"), Error);   // typo'd directive
  EXPECT_THROW(parse_trace("0 0 1 read 0 1\ntrace late\n"),
               Error);                                  // directive late
  EXPECT_THROW(parse_trace("initiators 2\n0 5 0 read 0 1\n"),
               Error);                                  // out of range
  EXPECT_THROW(parse_trace("targets 2\n0 0 5 read 0 1\n"), Error);
  EXPECT_THROW(parse_trace("5 0 0 read 0 1\n1 0 0 read 0 1\n"),
               Error);                                  // out of order
  EXPECT_THROW(parse_trace("0 0 1 read 0 1 x\n"), Error);  // bad thread
  EXPECT_THROW(parse_trace("0 0 1 read 0 1 2 9\n"),
               Error);                                  // trailing token
  // Entry numbers take the same digits-only grammar as the header: a
  // sign no longer wraps the offset to 2^64-8 or the burst to 2^32-1.
  expect_trace_line_error("0 0 1 read -8 1\n", 1);
  expect_trace_line_error("0 0 1 read 0 -1\n", 1);
  expect_trace_line_error("0 +1 1 read 0 1\n", 1);
  expect_trace_line_error("trace t\n0 0 1 read 0 1 4294967296\n", 2);
}

TEST(TraceFormat, WriterRejectsNamesThatCannotReload) {
  Trace t;
  t.name = "has space";  // would parse as extra tokens
  EXPECT_THROW(write_trace(t), Error);
  t.name = "a#b";  // '#' truncates as a comment on reload
  EXPECT_THROW(write_trace(t), Error);
  t.name = "";
  EXPECT_THROW(write_trace(t), Error);
}

TEST(TraceFormat, RoundTripsByteIdentically) {
  Trace t;
  t.name = "rt";
  t.initiators = 3;
  t.targets = 2;
  t.entries.push_back({0, 0, 1, ocp::Cmd::kRead, 64, 2, 3});
  t.entries.push_back({7, 2, 0, ocp::Cmd::kWrite, 8, 4, 0});
  t.entries.push_back({7, 1, 1, ocp::Cmd::kWriteNp, 0, 1, 1});
  const std::string canonical = write_trace(t);
  EXPECT_EQ(write_trace(parse_trace(canonical)), canonical);
  // And through a file.
  const std::string path = ::testing::TempDir() + "/workload_rt.trace";
  save_trace(t, path);
  EXPECT_EQ(write_trace(load_trace(path)), canonical);
}

TEST(TraceReplay, RecorderCapturesDriverSchedule) {
  auto net = make_net();
  TraceRecorder recorder(*net, "unit");
  traffic::TrafficConfig cfg;
  cfg.injection_rate = 0.1;
  cfg.seed = 11;
  traffic::TrafficDriver driver(*net, cfg);
  driver.run(200);
  net->run_until_quiescent(50000);

  const Trace& t = recorder.trace();
  EXPECT_EQ(t.initiators, 4u);
  EXPECT_EQ(t.targets, 4u);
  EXPECT_EQ(t.entries.size(), driver.injected());
  ASSERT_GT(t.entries.size(), 0u);
  for (std::size_t i = 1; i < t.entries.size(); ++i) {
    EXPECT_LE(t.entries[i - 1].cycle, t.entries[i].cycle);
  }
}

TEST(TraceReplay, ReplayReproducesRunStatsAndTraceBytes) {
  // Record a bursty run ...
  Trace recorded;
  std::string live_stats;
  {
    auto net = make_net();
    TraceRecorder recorder(*net, "unit");
    traffic::TrafficConfig cfg;
    cfg.injection_rate = 0.08;
    cfg.burstiness = 0.5;
    cfg.seed = 5;
    traffic::TrafficDriver driver(*net, cfg);
    driver.run(300);
    net->run_until_quiescent(50000);
    recorded = recorder.trace();
    live_stats = traffic::collect_run(*net, 300).to_string();
  }
  ASSERT_GT(recorded.entries.size(), 0u);

  // ... replay it on a fresh network while re-recording: identical
  // RunStats, and the re-recorded trace is byte-identical — replay
  // involves no RNG, so there is no seed it could depend on.
  auto net = make_net();
  TraceRecorder recorder(*net, "unit");
  TraceDriver replay(*net, recorded);
  replay.run(300);
  net->run_until_quiescent(50000);
  EXPECT_TRUE(replay.done());
  EXPECT_EQ(traffic::collect_run(*net, 300).to_string(), live_stats);
  EXPECT_EQ(write_trace(recorder.trace()), write_trace(recorded));
}

TEST(TraceReplay, ValidatesCompatibility) {
  auto net = make_net();
  Trace t;
  t.initiators = 9;  // network has 4
  EXPECT_THROW(TraceDriver(*net, t), Error);
  t.initiators = 4;
  t.targets = 9;
  EXPECT_THROW(TraceDriver(*net, t), Error);
  t.targets = 4;
  t.entries.push_back({0, 0, 0, ocp::Cmd::kRead, 0, 200});  // burst too big
  EXPECT_THROW(TraceDriver(*net, t), Error);
  t.entries[0] = {0, 0, 0, ocp::Cmd::kRead, 0, 1, 99};  // bad thread id
  EXPECT_THROW(TraceDriver(*net, t), Error);
}

TEST(TraceReplay, ReplayHelperDrains) {
  auto net = make_net();
  Trace t;
  t.initiators = 4;
  t.targets = 4;
  t.entries.push_back({0, 0, 1, ocp::Cmd::kRead, 0, 1});
  t.entries.push_back({40, 2, 3, ocp::Cmd::kWriteNp, 8, 1});
  TraceDriver driver(*net, t);
  const std::uint64_t cycles = driver.replay(50000);
  EXPECT_TRUE(driver.done());
  // 41 injection cycles (the last entry is at cycle 40), then the drain.
  EXPECT_EQ(cycles, 74u);
  EXPECT_EQ(net->master(0).completed().size(), 1u);
  EXPECT_EQ(net->master(2).completed().size(), 1u);
}

}  // namespace
}  // namespace xpl::workload
