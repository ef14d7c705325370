// VCD tracer: header structure, change-only dumping, value encoding.
#include "src/sim/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/common/error.hpp"

namespace xpl::sim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class Counter : public Module {
 public:
  explicit Counter(Signal<int>& out) : Module("ctr"), out_(out) {}
  void tick(Kernel&) override { out_.write(++count_); }
  int count() const { return count_; }

 private:
  Signal<int>& out_;
  int count_ = 0;
};

TEST(VcdTracer, EmitsWellFormedHeader) {
  Kernel kernel;
  const std::string path = ::testing::TempDir() + "/xpl_header.vcd";
  VcdTracer tracer(kernel, path);
  tracer.add_probe("alpha", 1, [] { return 0ull; });
  tracer.add_probe("beta.gamma", 8, [] { return 0x5Aull; });
  tracer.start();
  kernel.run(1);
  tracer.finish();

  const std::string vcd = slurp(path);
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! alpha $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 8 \" beta.gamma $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
}

TEST(VcdTracer, DumpsChangesOnly) {
  Kernel kernel;
  auto& sig = kernel.make_signal<int>(0);
  Counter counter(sig);
  kernel.add_module(counter);

  const std::string path = ::testing::TempDir() + "/xpl_changes.vcd";
  VcdTracer tracer(kernel, path);
  // A value that changes every cycle and one that never changes.
  tracer.add_probe("count", 16, [&] {
    return static_cast<std::uint64_t>(sig.read());
  });
  tracer.add_probe("constant", 4, [] { return 0xAull; });
  tracer.start();
  kernel.run(5);
  tracer.finish();

  const std::string vcd = slurp(path);
  // count: initial + 5 changes; constant: exactly one emission.
  std::size_t const_emissions = 0;
  std::size_t pos = 0;
  while ((pos = vcd.find("b1010 \"", pos)) != std::string::npos) {
    ++const_emissions;
    pos += 1;
  }
  EXPECT_EQ(const_emissions, 1u);
  // Timestamps for every cycle where something changed.
  for (int c = 1; c <= 5; ++c) {
    const std::string stamp =
        std::string("#").append(std::to_string(c)).append("\n");
    EXPECT_NE(vcd.find(stamp), std::string::npos) << "cycle " << c;
  }
  // Binary encoding of count value 3 (16 bits).
  EXPECT_NE(vcd.find("b0000000000000011 !"), std::string::npos);
}

TEST(VcdTracer, ScalarUsesCompactForm) {
  Kernel kernel;
  auto& sig = kernel.make_signal<int>(0);
  Counter counter(sig);
  kernel.add_module(counter);
  const std::string path = ::testing::TempDir() + "/xpl_scalar.vcd";
  VcdTracer tracer(kernel, path);
  tracer.add_probe("lsb", 1,
                   [&] { return static_cast<std::uint64_t>(sig.read() & 1); });
  tracer.start();
  kernel.run(3);
  tracer.finish();
  const std::string vcd = slurp(path);
  EXPECT_NE(vcd.find("1!"), std::string::npos);
  EXPECT_NE(vcd.find("0!"), std::string::npos);
}

TEST(VcdTracer, RejectsLateProbesAndBadWidths) {
  Kernel kernel;
  const std::string path = ::testing::TempDir() + "/xpl_bad.vcd";
  VcdTracer tracer(kernel, path);
  EXPECT_THROW(tracer.add_probe("w0", 0, [] { return 0ull; }), Error);
  EXPECT_THROW(tracer.add_probe("w65", 65, [] { return 0ull; }), Error);
  tracer.add_probe("ok", 4, [] { return 1ull; });
  tracer.start();
  EXPECT_THROW(tracer.add_probe("late", 1, [] { return 0ull; }), Error);
  EXPECT_THROW(tracer.start(), Error);
}

TEST(VcdTracer, ManyProbesGetDistinctIds) {
  Kernel kernel;
  const std::string path = ::testing::TempDir() + "/xpl_many.vcd";
  VcdTracer tracer(kernel, path);
  for (int i = 0; i < 200; ++i) {
    tracer.add_probe(std::string("p").append(std::to_string(i)), 4,
                     [i] { return static_cast<std::uint64_t>(i & 0xF); });
  }
  EXPECT_EQ(tracer.probe_count(), 200u);
  tracer.start();
  kernel.run(1);
  tracer.finish();
  // 200 > 94: identifier codes must have rolled into two characters.
  const std::string vcd = slurp(path);
  EXPECT_NE(vcd.find("$var wire 4 !\" p94 $end"), std::string::npos);
}

}  // namespace
}  // namespace xpl::sim
