// NoC specification parsing, writing, and round-tripping.
#include "src/compiler/spec_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include <sys/wait.h>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"

namespace xpl::compiler {
namespace {

const char kSample[] = R"(# a small custom NoC
noc sample
flit_width 64
beat_width 32
max_burst 8
threads 2
target_window 8192
routing updown
arbiter fixed
crc crc16

switch hub
switch leaf_a coord 0 1
switch leaf_b coord 1 1
link hub leaf_a stages 2
link leaf_a hub stages 2
link hub leaf_b
link leaf_b hub
initiator cpu0 at leaf_a
initiator cpu1 at leaf_b
target mem0 at hub
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

TEST(SpecIo, ParsesEveryDirective) {
  const NocSpec spec = parse_spec(kSample);
  EXPECT_EQ(spec.name, "sample");
  EXPECT_EQ(spec.net.flit_width, 64u);
  EXPECT_EQ(spec.net.beat_width, 32u);
  EXPECT_EQ(spec.net.max_burst, 8u);
  EXPECT_EQ(spec.net.num_threads, 2u);
  EXPECT_EQ(spec.net.target_window, 8192u);
  EXPECT_EQ(spec.net.routing, topology::RoutingAlgorithm::kUpDown);
  EXPECT_EQ(spec.net.arbiter, switchlib::ArbiterKind::kFixedPriority);
  EXPECT_EQ(spec.net.crc, CrcKind::kCrc16);

  EXPECT_EQ(spec.topo.num_switches(), 3u);
  EXPECT_EQ(spec.topo.num_links(), 4u);
  EXPECT_EQ(spec.topo.num_nis(), 3u);
  EXPECT_EQ(spec.topo.switch_node(0).name, "hub");
  EXPECT_EQ(spec.topo.switch_node(1).x, 0);
  EXPECT_EQ(spec.topo.switch_node(1).y, 1);
  EXPECT_EQ(spec.topo.link(0).stages, 2u);
  EXPECT_EQ(spec.topo.link(2).stages, 0u);
  EXPECT_EQ(spec.topo.ni(0).name, "cpu0");
  EXPECT_TRUE(spec.topo.ni(0).initiator);
  EXPECT_FALSE(spec.topo.ni(2).initiator);
}

TEST(SpecIo, ParsedSpecCompilesAndSimulates) {
  const NocSpec spec = parse_spec(kSample);
  XpipesCompiler xpipes;
  auto net = xpipes.build_simulation(spec);
  net->slave(0).poke(0x8, 0x1234);
  ocp::Transaction txn;
  txn.cmd = ocp::Cmd::kRead;
  txn.addr = net->target_base(0) + 0x8;
  txn.burst_len = 1;
  net->master(0).push_transaction(txn);
  net->run_until_quiescent(10000);
  ASSERT_EQ(net->master(0).completed().size(), 1u);
  EXPECT_EQ(net->master(0).completed()[0].data.at(0), 0x1234u);
}

TEST(SpecIo, RoundTripIsStable) {
  const NocSpec spec = parse_spec(kSample);
  const std::string once = write_spec(spec);
  const std::string twice = write_spec(parse_spec(once));
  EXPECT_EQ(once, twice);
}

TEST(SpecIo, SchedulerAliasesParseToTheDefaultAndFullRoundTrips) {
  // `gated` (the legacy name) and `time_leap` both select the default
  // production kernel, which is never written back; only the full
  // reference is.
  const std::string plain = write_spec(parse_spec(kSample));
  EXPECT_EQ(plain.find("scheduler"), std::string::npos);
  for (const char* name : {"gated", "time_leap"}) {
    const NocSpec spec =
        parse_spec(std::string(kSample) + "scheduler " + name + "\n");
    EXPECT_EQ(spec.net.scheduler, sim::Scheduler::kTimeLeap) << name;
    EXPECT_EQ(write_spec(spec), plain) << name;
  }
  const NocSpec full = parse_spec(std::string(kSample) + "scheduler full\n");
  EXPECT_EQ(full.net.scheduler, sim::Scheduler::kFull);
  const std::string text = write_spec(full);
  EXPECT_NE(text.find("scheduler full\n"), std::string::npos);
  EXPECT_EQ(parse_spec(text).net.scheduler, sim::Scheduler::kFull);
  EXPECT_EQ(write_spec(parse_spec(text)), text);
}

TEST(SpecIo, GeneratedTopologyRoundTrips) {
  NocSpec spec;
  spec.name = "mesh";
  spec.topo = topology::make_mesh(
      3, 2, topology::NiPlan::uniform(6, 1, 1), /*link_stages=*/1);
  spec.net.routing = topology::RoutingAlgorithm::kXY;
  const NocSpec back = parse_spec(write_spec(spec));
  EXPECT_EQ(back.topo.num_switches(), spec.topo.num_switches());
  EXPECT_EQ(back.topo.num_links(), spec.topo.num_links());
  EXPECT_EQ(back.topo.num_nis(), spec.topo.num_nis());
  for (std::uint32_t l = 0; l < spec.topo.num_links(); ++l) {
    EXPECT_EQ(back.topo.link(l).from, spec.topo.link(l).from);
    EXPECT_EQ(back.topo.link(l).to, spec.topo.link(l).to);
    EXPECT_EQ(back.topo.link(l).stages, spec.topo.link(l).stages);
  }
  // Coordinates survive, so XY routing still works.
  EXPECT_EQ(back.topo.switch_node(4).x, spec.topo.switch_node(4).x);
}

TEST(SpecIo, BufferDepthsAreConditionalAndRoundTrip) {
  // Defaults are never written...
  NocSpec spec = parse_spec(kSample);
  EXPECT_EQ(write_spec(spec).find("input_fifo"), std::string::npos);
  EXPECT_EQ(write_spec(spec).find("output_fifo"), std::string::npos);
  // ...off-default depths are, and survive the round trip.
  spec.net.input_fifo_depth = 4;
  spec.net.output_fifo_depth = 8;
  const std::string text = write_spec(spec);
  EXPECT_NE(text.find("input_fifo 4"), std::string::npos);
  EXPECT_NE(text.find("output_fifo 8"), std::string::npos);
  const NocSpec back = parse_spec(text);
  EXPECT_EQ(back.net.input_fifo_depth, 4u);
  EXPECT_EQ(back.net.output_fifo_depth, 8u);
  EXPECT_EQ(write_spec(back), text);
}

TEST(SpecIo, VcAnnotatedTopologyRoundTrips) {
  // A torus generator marks vc classes and datelines; both must survive
  // write/parse so an emitted multi-lane spec re-simulates exactly.
  NocSpec spec;
  spec.name = "torus";
  spec.topo = topology::make_torus(3, 3, topology::NiPlan::uniform(9, 1, 1));
  spec.net.vcs = 2;
  spec.net.routing = topology::RoutingAlgorithm::kShortestPath;
  ASSERT_TRUE(spec.topo.has_datelines());

  const std::string text = write_spec(spec);
  EXPECT_NE(text.find(" class 1"), std::string::npos);
  EXPECT_NE(text.find(" dateline"), std::string::npos);
  const NocSpec back = parse_spec(text);
  ASSERT_EQ(back.topo.num_links(), spec.topo.num_links());
  for (std::uint32_t l = 0; l < spec.topo.num_links(); ++l) {
    EXPECT_EQ(back.topo.link(l).vc_class, spec.topo.link(l).vc_class);
    EXPECT_EQ(back.topo.link(l).dateline, spec.topo.link(l).dateline);
  }
  EXPECT_TRUE(back.topo.has_datelines());
  EXPECT_EQ(write_spec(back), text);  // canonical
}

TEST(SpecIo, LinkAnnotationsParseInAnyOrder) {
  const char* base = "switch a\nswitch b\n";
  const NocSpec s1 = parse_spec(std::string(base) +
                                "link a b stages 2 class 1 dateline\n");
  EXPECT_EQ(s1.topo.link(0).stages, 2u);
  EXPECT_EQ(s1.topo.link(0).vc_class, 1u);
  EXPECT_TRUE(s1.topo.link(0).dateline);
  const NocSpec s2 =
      parse_spec(std::string(base) + "link a b dateline class 3\n");
  EXPECT_EQ(s2.topo.link(0).stages, 0u);
  EXPECT_EQ(s2.topo.link(0).vc_class, 3u);
  EXPECT_TRUE(s2.topo.link(0).dateline);
}

TEST(SpecIo, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/xpl_spec.noc";
  save_spec(parse_spec(kSample), path);
  const NocSpec spec = load_spec(path);
  EXPECT_EQ(spec.name, "sample");
  EXPECT_EQ(spec.topo.num_switches(), 3u);
}

TEST(SpecIo, ErrorsCarryLineNumbers) {
  try {
    parse_spec("noc x\nbogus_directive 3\n");
    FAIL() << "expected xpl::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(SpecIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_spec("flit_width\n"), Error);
  EXPECT_THROW(parse_spec("flit_width abc\n"), Error);
  EXPECT_THROW(parse_spec("link a b\n"), Error);  // unknown switches
  EXPECT_THROW(parse_spec("switch a\nswitch a\n"), Error);  // duplicate
  EXPECT_THROW(parse_spec("routing diagonal\n"), Error);
  EXPECT_THROW(parse_spec("switch a\ninitiator x on a\n"), Error);
  // New-directive malformations.
  EXPECT_THROW(parse_spec("input_fifo 0\n"), Error);
  EXPECT_THROW(parse_spec("output_fifo 0\n"), Error);
  EXPECT_THROW(parse_spec("input_fifo\n"), Error);
  EXPECT_THROW(parse_spec("switch a\nswitch b\nlink a b stages\n"), Error);
  EXPECT_THROW(parse_spec("switch a\nswitch b\nlink a b class\n"), Error);
  EXPECT_THROW(parse_spec("switch a\nswitch b\nlink a b class 256\n"),
               Error);
  EXPECT_THROW(parse_spec("switch a\nswitch b\nlink a b sideband\n"),
               Error);
}

TEST(SpecIo, RejectsSignedNumbers) {
  // stoull would wrap "-1" to 2^64-1: a FIFO that deep hangs the build,
  // and a wrapped thread count or width builds a nonsense network.
  for (const char* directive :
       {"input_fifo", "threads", "flit_width", "max_burst"}) {
    for (const char* number : {"-1", "+1"}) {
      const std::string text =
          std::string("noc x\n") + directive + " " + number + "\n";
      try {
        parse_spec(text);
        FAIL() << "expected xpl::Error for " << text;
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()).rfind("spec line 2:", 0), 0u)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("bad number '"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

/// Asserts parse_spec rejects `text` with an error that starts
/// "spec line <line>:".
void expect_spec_line_error(const std::string& text, std::size_t line) {
  try {
    parse_spec(text);
    FAIL() << "expected xpl::Error for: " << text;
  } catch (const Error& e) {
    const std::string prefix = "spec line " + std::to_string(line) + ":";
    EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
        << "message '" << e.what() << "' does not start with '" << prefix
        << "'";
  }
}

// A 2^32-deep output FIFO used to parse and then die in the build with
// std::bad_alloc; every depth now has a cap.
const char kOversizedFifo[] = "noc x\noutput_fifo 4294967296\n";

TEST(SpecIo, OversizedOutputFifoFailsAtItsLine) {
  expect_spec_line_error(kOversizedFifo, 2);
}

TEST(SpecIo, OversizedCoordFailsAtItsLine) {
  // int cast: x used to wrap to -1, silently dropping the coordinate.
  expect_spec_line_error("noc x\nswitch a coord 4294967295 1\n", 2);
}

TEST(SpecIo, OversizedSimThreadsFailsAtItsLine) {
  expect_spec_line_error("noc x\nsim_threads 4294967295\n", 2);
}

TEST(SpecIo, BadFlowTokenReadsAsInTheCampaignFormats) {
  // .sweep and .tune report the same token with the same words.
  try {
    parse_spec("noc x\nflow bogus\n");
    FAIL() << "expected xpl::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "spec line 2: unknown flow control 'bogus' (expected "
              "ack_nack | credit)");
  }
}

TEST(SpecIo, XpipescReportsTheBadLineInsteadOfTerminating) {
  // --print-spec stops right after parsing, so no build ever starts.
  const std::string dir = ::testing::TempDir();
  const std::string spec = dir + "/xpl_oversized_fifo.noc";
  const std::string log = dir + "/xpl_oversized_fifo.log";
  std::ofstream(spec) << kOversizedFifo;
  const std::string cmd = std::string(XPL_XPIPESC) + " " + spec +
                          " --print-spec > " + log + " 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0);
  std::ostringstream out;
  out << std::ifstream(log).rdbuf();
  EXPECT_NE(out.str().find("xpipesc: spec line 2: "), std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().find("terminate"), std::string::npos) << out.str();
  std::remove(spec.c_str());
  std::remove(log.c_str());
}

TEST(SpecIo, XpipescRejectsAMistypedNumericFlag) {
  // Numeric flags read with the file fields' grammar and caps: a typo is
  // a usage error (exit 2), not a prefix or a zero.
  const std::string spec = ::testing::TempDir() + "/xpl_flag_sample.noc";
  std::ofstream(spec) << kSample;
  const std::string xpipesc = std::string(XPL_XPIPESC) + " " + spec;
  auto [code, out] = run_tool(xpipesc + " --estimate 9OO", "xpl_estimate");
  EXPECT_EQ(code, 2) << out;
  EXPECT_EQ(out, "xpipesc: --estimate: bad number '9OO'\n");
  std::tie(code, out) = run_tool(xpipesc + " --rate 1.5", "xpl_rate");
  EXPECT_EQ(code, 2) << out;
  EXPECT_EQ(out, "xpipesc: --rate: value 1.5 out of range [0, 1]\n");
  std::tie(code, out) = run_tool(xpipesc + " --sim-threads 0", "xpl_st");
  EXPECT_EQ(code, 2) << out;
  EXPECT_EQ(out, "xpipesc: --sim-threads: value 0 out of range [1, 256]\n");
  std::remove(spec.c_str());
}

TEST(SpecIo, CommentsAndBlanksIgnored) {
  const NocSpec spec = parse_spec(
      "# comment\n\nnoc c   # trailing comment\n\nswitch s0\nswitch s1\n"
      "link s0 s1\nlink s1 s0\ninitiator i at s0\ntarget t at s1\n");
  EXPECT_EQ(spec.name, "c");
  EXPECT_EQ(spec.topo.num_links(), 2u);
}

}  // namespace
}  // namespace xpl::compiler
