// Golden determinism pins for the simulation core.
//
// These tests compare byte-exact artifacts — campaign CSV/JSON exports and
// a recorded `.trace` — against files checked in under tests/golden/. They
// were generated *before* the hot-path refactor (inline flit storage,
// pooled signal commit, ring-buffer FIFOs) landed, so any refactor of the
// core must reproduce the seed behaviour bit for bit to stay green. Both
// kernel schedulers are pinned: the default runs exercise the time-leap
// kernel, and the scheduler-invariance test re-runs the campaign under
// `scheduler full` against the same bytes.
//
// Regenerating (only when an intentional behaviour change is reviewed):
//   XPL_UPDATE_GOLDEN=1 ./golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/compiler/compiler.hpp"
#include "src/link/flow.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/trace.hpp"

namespace xpl {
namespace {

std::string golden_dir() { return std::string(XPL_SOURCE_DIR) + "/tests/golden/"; }

bool update_mode() { return std::getenv("XPL_UPDATE_GOLDEN") != nullptr; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << bytes;
}

/// Compares `bytes` against the pinned golden file (or rewrites it in
/// update mode). On mismatch the first differing offset is reported.
void expect_golden(const std::string& name, const std::string& bytes) {
  const std::string path = golden_dir() + name;
  if (update_mode()) {
    write_file(path, bytes);
    return;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden file " << path
                             << " (run with XPL_UPDATE_GOLDEN=1 to create)";
  if (bytes == want) return;
  std::size_t off = 0;
  while (off < bytes.size() && off < want.size() && bytes[off] == want[off]) {
    ++off;
  }
  FAIL() << name << " diverges from golden at byte " << off << " (got "
         << bytes.size() << " bytes, want " << want.size() << ")";
}

/// The pinned campaign: small enough to run in seconds, wide enough to
/// exercise two flit widths, two mesh shapes, and bursty + Bernoulli
/// injection. All 16 points are feasible; if one ever fails, the failure
/// row is pinned too.
const char* kCampaignSpec =
    "sweep golden\n"
    "seed 7\n"
    "cycles 1500\n"
    "topology mesh\n"
    "width 2 3\n"
    "height 2\n"
    "flit_width 16 32\n"
    "injection_rate 0.03\n"
    "burstiness 0 0.5\n";

TEST(Golden, CampaignCsvAndJsonAreByteStable) {
  const sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

TEST(Golden, CampaignIsThreadCountInvariant) {
  const sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  const sweep::ResultTable t1 = sweep::SweepRunner(1).run(spec);
  const sweep::ResultTable t8 = sweep::SweepRunner(8).run(spec);
  EXPECT_EQ(t1.to_csv(), t8.to_csv());
  EXPECT_EQ(t1.to_json(), t8.to_json());
}

TEST(Golden, CampaignIsSchedulerInvariantAgainstGolden) {
  // The pinned artifacts predate the event-driven kernel. The runs above
  // use the default time-leap kernel; this pins `scheduler full` against
  // the *same* bytes, so both schedulers are anchored to the seed
  // behaviour independently (not merely to each other).
  sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  ASSERT_EQ(spec.scheduler, "gated");  // the campaign-wide default
  spec.scheduler = "full";
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

TEST(Golden, CampaignIsTimeLeapInvariantAgainstGolden) {
  // Pins `scheduler time_leap` — quiescent cycle gaps skipped via the
  // wake calendar (DESIGN.md §2) — and its legacy alias `scheduler gated`
  // directly against the pre-time-leap artifact bytes.
  for (const char* name : {"time_leap", "gated"}) {
    sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
    spec.scheduler = name;
    sweep::SweepRunner runner(1);
    const sweep::ResultTable table = runner.run(spec);
    expect_golden("campaign.csv", table.to_csv());
    expect_golden("campaign.json", table.to_json());
  }
}

TEST(Golden, CampaignIsPartitionedTimeLeapInvariantAgainstGolden) {
  // Time-leap composed with conservative partitioning (4 partitions on 4
  // threads, partition-local leaps capped at epoch barriers) must still
  // reproduce the pinned bytes.
  sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  spec.partitions = 4;
  spec.threads = 4;
  spec.scheduler = "time_leap";
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

TEST(Golden, CampaignIsPartitionInvariantAgainstGolden) {
  // The pinned artifacts predate partitioned simulation. Re-running the
  // campaign with every point split into 4 partitions on 4 threads must
  // reproduce the same bytes — partitioning is a throughput knob, never
  // an axis, and the goldens anchor that directly to the seed behaviour.
  sweep::SweepSpec spec = sweep::parse_sweep(kCampaignSpec);
  spec.partitions = 4;
  spec.threads = 4;
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  expect_golden("campaign.csv", table.to_csv());
  expect_golden("campaign.json", table.to_json());
}

/// The flow-control comparison campaign: the same grid under ACK/nACK
/// and credit flow control. Pins (a) that ack_nack rows are identical to
/// what the hard-wired protocol produced, (b) credit-mode results, and
/// (c) the extended flow/credit_stalls export columns.
const char* kFlowCampaignSpec =
    "sweep golden_flow\n"
    "seed 7\n"
    "cycles 1200\n"
    "topology mesh\n"
    "width 2\n"
    "height 2\n"
    "flow ack_nack credit\n"
    "injection_rate 0.05 0.2\n";

TEST(Golden, FlowCampaignCsvIsByteStable) {
  const sweep::SweepSpec spec = sweep::parse_sweep(kFlowCampaignSpec);
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  // Credit mode must never retransmit; under load it must stall instead.
  for (const auto& r : table.rows()) {
    ASSERT_TRUE(r.ok) << r.error;
    if (r.point.net.flow == link::FlowControl::kCredit) {
      EXPECT_EQ(r.retransmissions, 0u);
    }
  }
  expect_golden("campaign_flow.csv", table.to_csv());
}

/// The low-load campaign: injection rates so sparse that the time-leap
/// kernel skips most of the network most cycles — the regime it
/// optimizes. Pinned so the fast path has a golden of its own, and
/// cross-checked against the full reference in-test.
const char* kLowLoadCampaignSpec =
    "sweep golden_lowload\n"
    "seed 13\n"
    "cycles 2000\n"
    "topology mesh\n"
    "width 3\n"
    "height 3\n"
    "flow ack_nack credit\n"
    "injection_rate 0.002 0.01\n";

TEST(Golden, LowLoadCampaignCsvIsByteStable) {
  // The default leg anchors the leaping kernel to the pinned bytes; the
  // full leg cross-checks the reference.
  sweep::SweepSpec spec = sweep::parse_sweep(kLowLoadCampaignSpec);
  sweep::SweepRunner runner(1);
  const sweep::ResultTable table = runner.run(spec);
  for (const auto& r : table.rows()) ASSERT_TRUE(r.ok) << r.error;
  expect_golden("campaign_lowload.csv", table.to_csv());

  spec.scheduler = "full";
  const sweep::ResultTable full_table = runner.run(spec);
  EXPECT_EQ(full_table.to_csv(), table.to_csv());
}

TEST(Golden, RecordedTraceIsByteStable) {
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.08;
  tcfg.burstiness = 0.4;
  tcfg.seed = 99;
  workload::TraceRecorder recorder(net, "golden");
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(600);
  net.run_until_quiescent(20000);

  ASSERT_GT(recorder.recorded(), 0u);
  expect_golden("run.trace", workload::write_trace(recorder.trace()));
}

TEST(Golden, RecordedTraceIsTimeLeapInvariant) {
  // Same scenario under the time-leap scheduler: the driver runs through
  // its injector module (lookahead rolls, calendar sleeps) and the
  // recorded `.trace` must still match the pinned bytes — release
  // cycles, not roll cycles, are what the recorder sees.
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  cfg.scheduler = sim::Scheduler::kTimeLeap;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.08;
  tcfg.burstiness = 0.4;
  tcfg.seed = 99;
  workload::TraceRecorder recorder(net, "golden");
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(600);
  net.run_until_quiescent(20000);

  ASSERT_GT(recorder.recorded(), 0u);
  expect_golden("run.trace", workload::write_trace(recorder.trace()));
}

TEST(Golden, RecordedTraceIsPartitionInvariant) {
  // Same scenario as RecordedTraceIsByteStable, but simulated as 4
  // partitions on 4 threads: the recorded `.trace` must match the same
  // pinned bytes, epoch pre-roll and all.
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  cfg.partitions = 4;
  cfg.sim_threads = 4;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);

  traffic::TrafficConfig tcfg;
  tcfg.injection_rate = 0.08;
  tcfg.burstiness = 0.4;
  tcfg.seed = 99;
  workload::TraceRecorder recorder(net, "golden");
  traffic::TrafficDriver driver(net, tcfg);
  driver.run(600);
  net.run_until_quiescent(20000);

  ASSERT_GT(recorder.recorded(), 0u);
  expect_golden("run.trace", workload::write_trace(recorder.trace()));
}

// The emitted LUT contents: every NI-pair route, in (source, destination)
// order, as the hardware view's constant arrays. Pinned for the paper's
// 3x4 case study under XY and for a 4x4 torus under minimal routing with
// two dateline lanes, so route elaboration keeps every byte.
std::string routes_header(compiler::NocSpec spec) {
  return compiler::XpipesCompiler().emit_systemc(spec).at("xpipes_routes.h");
}

TEST(Golden, CaseStudyRoutesHeaderIsByteStable) {
  compiler::NocSpec spec;
  spec.name = "case_study";
  spec.topo = topology::make_paper_case_study();
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  expect_golden("routes_case_study_xy.h", routes_header(spec));
}

TEST(Golden, DatelineTorusRoutesHeaderIsByteStable) {
  compiler::NocSpec spec;
  spec.name = "torus4";
  spec.topo = topology::make_torus(4, 4, topology::NiPlan::uniform(16, 1, 1));
  spec.net.routing = topology::RoutingAlgorithm::kShortestPath;
  spec.net.vcs = 2;
  expect_golden("routes_torus4_dateline.h", routes_header(spec));
}

}  // namespace
}  // namespace xpl
