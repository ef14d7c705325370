// Extended statistics: warmup windows, histograms, link loads, CSV
// export.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/topology/generators.hpp"
#include "src/traffic/stats.hpp"
#include "src/traffic/traffic.hpp"

namespace xpl::traffic {
namespace {

std::unique_ptr<noc::Network> loaded_net(double rate = 0.06) {
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  auto net = std::make_unique<noc::Network>(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);
  TrafficConfig tcfg;
  tcfg.injection_rate = rate;
  tcfg.read_fraction = 1.0;
  tcfg.seed = 8;
  TrafficDriver driver(*net, tcfg);
  driver.run(3000);
  net->run_until_quiescent(50000);
  return net;
}

TEST(Warmup, WindowExcludesPreWarmupTransactions) {
  auto net = loaded_net();
  const auto whole = collect_run(*net, 3000);
  const auto windowed = collect_run(*net, 3000, 1500);

  // Traffic was injected from cycle 0, so a 1500-cycle warmup must drop
  // transactions — and every survivor was issued inside the window.
  EXPECT_GT(whole.transactions, windowed.transactions);
  EXPECT_GT(windowed.transactions, 0u);
  EXPECT_EQ(windowed.warmup, 1500u);
  std::size_t in_window = 0;
  for (std::size_t i = 0; i < net->num_initiators(); ++i) {
    for (const auto& r : net->master(i).completed()) {
      if (r.issue_cycle >= 1500) ++in_window;
    }
  }
  EXPECT_EQ(windowed.transactions, in_window);

  // Latency distribution likewise shrinks to the window's samples.
  EXPECT_EQ(windowed.latency.count, collect_latency(*net, 1500).count);
  EXPECT_LT(windowed.latency.count, whole.latency.count);

  // Throughput normalizes over the measured window, not the whole run.
  EXPECT_DOUBLE_EQ(windowed.throughput,
                   static_cast<double>(windowed.transactions) / 1500.0);

  // Degenerate windows are rejected; warmup=0 is the whole-run default.
  EXPECT_THROW(collect_run(*net, 3000, 3000), Error);
  EXPECT_EQ(whole.transactions, collect_run(*net, 3000, 0).transactions);
}

TEST(Histogram, CountsMatchLatencyStats) {
  auto net = loaded_net();
  const auto lat = collect_latency(*net);
  const auto hist = collect_histogram(*net, 5);
  EXPECT_EQ(hist.total, lat.count);
  std::uint64_t sum = 0;
  for (const auto b : hist.bins) sum += b;
  EXPECT_EQ(sum, hist.total);
  // The bin containing the minimum is the first nonempty one.
  const std::size_t first_bin = lat.min / 5;
  for (std::size_t i = 0; i < first_bin; ++i) {
    EXPECT_EQ(hist.bins[i], 0u);
  }
  EXPECT_GT(hist.bins[first_bin], 0u);
}

TEST(Histogram, CdfMonotoneAndBounded) {
  auto net = loaded_net();
  const auto hist = collect_histogram(*net, 10);
  double prev = 0.0;
  for (std::uint64_t l = 0; l < 500; l += 10) {
    const double c = hist.cdf(l);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_NEAR(hist.cdf(100000), 1.0, 1e-12);
}

TEST(Histogram, CdfOfMaxIsOneForSingleBinData) {
  // Regression: the old bin test `(i+1)*w - 1 <= latency` skipped the
  // bin *containing* the latency, so with every sample in bin 0 (bin
  // width beyond the max latency) cdf(max) returned 0.0.
  LatencyHistogram hist;
  hist.bin_width = 1000;
  hist.bins = {7};  // all 7 samples in [0, 1000)
  hist.total = 7;
  EXPECT_DOUBLE_EQ(hist.cdf(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.cdf(42), 1.0);
  EXPECT_DOUBLE_EQ(hist.cdf(999), 1.0);

  // And through the collector: one giant bin swallowing a real run.
  auto net = loaded_net();
  const auto lat = collect_latency(*net);
  const auto wide = collect_histogram(*net, lat.max + 1);
  ASSERT_EQ(wide.bins.size(), 1u);
  EXPECT_DOUBLE_EQ(wide.cdf(lat.max), 1.0);

  // At any bin width, the bin containing the max sample counts.
  const auto narrow = collect_histogram(*net, 10);
  EXPECT_DOUBLE_EQ(narrow.cdf(lat.max), 1.0);
}

TEST(Histogram, RejectsZeroBinWidth) {
  auto net = loaded_net(0.01);
  EXPECT_THROW(collect_histogram(*net, 0), Error);
}

TEST(Histogram, ToStringListsNonEmptyBins) {
  auto net = loaded_net();
  const auto hist = collect_histogram(*net, 10);
  const std::string s = hist.to_string();
  EXPECT_FALSE(s.empty());
  EXPECT_NE(s.find("["), std::string::npos);
}

TEST(LinkLoads, SortedAndConsistent) {
  auto net = loaded_net();
  const auto loads = collect_link_loads(*net, 3000);
  ASSERT_EQ(loads.size(), net->num_links());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(loads[i].flits, loads[i - 1].flits);
    }
    EXPECT_FALSE(loads[i].name.empty());
    EXPECT_EQ(loads[i].corrupted, 0u);  // no error injection here
    total += loads[i].flits;
  }
  EXPECT_EQ(total, net->total_link_flits());
}

TEST(LatencyCsv, WritesOneRowPerLatencyCarryingTransaction) {
  auto net = loaded_net();  // read_fraction 1.0: every txn carries latency
  std::size_t completed = 0;
  for (std::size_t i = 0; i < net->num_initiators(); ++i) {
    completed += net->master(i).completed().size();
  }
  const std::string path = ::testing::TempDir() + "/xpl_lat.csv";
  const std::size_t rows = write_latency_csv(*net, path);
  EXPECT_EQ(rows, completed);

  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "initiator,thread,issue_cycle,complete_cycle,latency,beats");
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, rows);
}

TEST(LatencyCsv, ExcludesPostedWritesAndPreWarmupRows) {
  // A run with posted writes: those complete at issue and used to leak
  // into the CSV as zero-latency rows, and the exporter ignored warmup
  // entirely — both now follow collect_latency's filter exactly.
  noc::NetworkConfig cfg;
  cfg.routing = topology::RoutingAlgorithm::kXY;
  cfg.target_window = 1 << 12;
  noc::Network net(
      topology::make_mesh(2, 2, topology::NiPlan::uniform(4, 1, 1)), cfg);
  TrafficConfig tcfg;
  tcfg.injection_rate = 0.06;
  tcfg.read_fraction = 0.5;  // half the traffic is posted writes
  tcfg.seed = 9;
  TrafficDriver driver(net, tcfg);
  driver.run(3000);
  net.run_until_quiescent(50000);

  std::size_t total = 0;
  for (std::size_t i = 0; i < net.num_initiators(); ++i) {
    total += net.master(i).completed().size();
  }

  const std::string path = ::testing::TempDir() + "/xpl_lat_warm.csv";
  const std::size_t whole = write_latency_csv(net, path);
  EXPECT_LT(whole, total);  // posted writes are gone
  EXPECT_EQ(whole, collect_latency(net).count);

  const std::size_t windowed = write_latency_csv(net, path, 1500);
  EXPECT_LT(windowed, whole);  // warmup window engaged
  EXPECT_EQ(windowed, collect_latency(net, 1500).count);

  // Every surviving row has positive latency and post-warmup issue.
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    std::uint64_t ini = 0, thread = 0, issue = 0, complete = 0;
    char c = 0;
    std::istringstream ls(line);
    ls >> ini >> c >> thread >> c >> issue >> c >> complete;
    EXPECT_GE(issue, 1500u);
    EXPECT_GT(complete, issue);
  }
  EXPECT_EQ(lines, windowed);
}

}  // namespace
}  // namespace xpl::traffic
