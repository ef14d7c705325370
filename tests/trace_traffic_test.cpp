// Trace-driven traffic: trace bodies read through workload::parse_trace,
// replayed cycle-exactly by traffic::TracePlayer.
#include <gtest/gtest.h>

#include <fstream>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workload/trace.hpp"

namespace xpl::traffic {
namespace {

using workload::load_trace;
using workload::parse_trace;

std::unique_ptr<noc::Network> make_net() {
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  return std::make_unique<noc::Network>(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);
}

TEST(Trace, ParsesEntriesAndComments) {
  const auto trace = parse_trace(
      "# a trace\n"
      "0 0 1 read 0 1\n"  // offsets are decimal
      "5 1 2 write 16 2\n"
      "\n"
      "9 3 0 writenp 8 1  # trailing comment\n").entries;
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].cycle, 0u);
  EXPECT_EQ(trace[0].cmd, ocp::Cmd::kRead);
  EXPECT_EQ(trace[1].initiator, 1u);
  EXPECT_EQ(trace[1].target, 2u);
  EXPECT_EQ(trace[1].cmd, ocp::Cmd::kWrite);
  EXPECT_EQ(trace[1].burst, 2u);
  EXPECT_EQ(trace[2].cmd, ocp::Cmd::kWriteNp);
  EXPECT_EQ(trace[2].addr_offset, 8u);
}

TEST(Trace, RejectsMalformed) {
  EXPECT_THROW(parse_trace("0 0 1 read 0\n"), Error);       // missing burst
  EXPECT_THROW(parse_trace("0 0 1 erase 0 1\n"), Error);    // bad cmd
  EXPECT_THROW(parse_trace("5 0 1 read 0 1\n1 0 1 read 0 1\n"),
               Error);                                      // out of order
  EXPECT_THROW(parse_trace("0 0 1 read 0 0\n"), Error);     // burst 0
}

TEST(Trace, PlayerValidatesAgainstNetwork) {
  auto net = make_net();
  std::vector<TraceEntry> trace{{0, 9, 0, ocp::Cmd::kRead, 0, 1}};
  EXPECT_THROW(TracePlayer(*net, trace), Error);  // initiator 9 missing
  trace[0] = {0, 0, 9, ocp::Cmd::kRead, 0, 1};
  EXPECT_THROW(TracePlayer(*net, trace), Error);  // target 9 missing
  trace[0] = {0, 0, 0, ocp::Cmd::kRead, 0, 200};
  EXPECT_THROW(TracePlayer(*net, trace), Error);  // burst too big
}

TEST(Trace, ReplaysAtScheduledCycles) {
  auto net = make_net();
  const auto trace = parse_trace(
      "0 0 1 writenp 0 1\n"
      "50 1 2 writenp 8 1\n"
      "100 2 3 writenp 16 1\n").entries;
  TracePlayer player(*net, trace);
  player.run(120);
  net->run_until_quiescent(50000);
  EXPECT_TRUE(player.done());
  EXPECT_EQ(player.injected(), 3u);
  // Issue cycles respect the schedule (injection at or after trace cycle).
  EXPECT_GE(net->master(0).completed().at(0).issue_cycle, 0u);
  EXPECT_GE(net->master(1).completed().at(0).issue_cycle, 50u);
  EXPECT_GE(net->master(2).completed().at(0).issue_cycle, 100u);
  // And not absurdly later (the network was idle).
  EXPECT_LE(net->master(1).completed().at(0).issue_cycle, 60u);
  EXPECT_LE(net->master(2).completed().at(0).issue_cycle, 110u);
}

TEST(Trace, WriteThenReadDataFlows) {
  auto net = make_net();
  // Same initiator writes then reads the same location in trace order.
  const auto trace = parse_trace(
      "0 0 2 write 24 1\n"
      "10 0 2 read 24 1\n").entries;
  TracePlayer player(*net, trace);
  player.run(20);
  net->run_until_quiescent(50000);
  const auto& completed = net->master(0).completed();
  ASSERT_EQ(completed.size(), 2u);
  ASSERT_EQ(completed[1].data.size(), 1u);
  // Read returns whatever the traced write stored (payload is generated,
  // so compare via the slave's memory backdoor).
  EXPECT_EQ(completed[1].data[0], net->slave(2).peek(24) & 0xFFFFFFFFull);
}

TEST(Trace, LoadFromFile) {
  const std::string path = ::testing::TempDir() + "/xpl.trace";
  {
    std::ofstream out(path);
    out << "0 0 0 read 0 1\n3 1 1 read 0 2\n";
  }
  const auto trace = load_trace(path).entries;
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].burst, 2u);
}

}  // namespace
}  // namespace xpl::traffic
