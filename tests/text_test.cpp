// The shared text front end (src/common/text.hpp): tokenizer, line
// reader, the one number grammar with its ranges, and the round-trip
// contract over every text file the repository ships.
#include "src/common/text.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/sweep/checkpoint.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"
#include "src/tune/spec.hpp"
#include "src/workload/trace.hpp"

namespace xpl::text {
namespace {

const Where kAt{"demo", 7};

/// The xpl::Error text `run` throws, or "" when it returns normally.
template <typename Run>
std::string error_of(Run run) {
  try {
    run();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Text, TokenizerSplitsOnWhitespaceAndStopsAtComments) {
  EXPECT_EQ(tokenize(" a\tb \r c\v"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(tokenize("key 1 # note"), (std::vector<std::string>{"key", "1"}));
  EXPECT_EQ(tokenize("key 1 #note"), (std::vector<std::string>{"key", "1"}));
  // '#' opens a comment only at the start of a token.
  EXPECT_EQ(tokenize("noc a#b"), (std::vector<std::string>{"noc", "a#b"}));
  EXPECT_TRUE(tokenize("# all comment").empty());
  EXPECT_TRUE(tokenize("   ").empty());
}

TEST(Text, NextTokenLeavesTheRawTail) {
  std::string_view rest = "result  7 tail # kept\tverbatim";
  EXPECT_EQ(next_token(rest), "result");
  EXPECT_EQ(next_token(rest), "7");
  EXPECT_EQ(rest, " tail # kept\tverbatim");
  std::string_view blank = " \t";
  EXPECT_EQ(next_token(blank), "");
  EXPECT_TRUE(blank.empty());
}

TEST(Text, LineReaderCountsEveryLine) {
  LineReader in("a 1\n\n# comment\n  b 2 # trailing\nc", "demo");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.at().line, 1u);
  EXPECT_EQ(in.tokens(), (std::vector<std::string>{"a", "1"}));
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.at().line, 4u);
  EXPECT_EQ(in.raw(), "  b 2 # trailing");
  EXPECT_EQ(in.tokens(), (std::vector<std::string>{"b", "2"}));
  ASSERT_TRUE(in.next());  // a last line needs no newline
  EXPECT_EQ(in.at().line, 5u);
  EXPECT_FALSE(in.next());
  EXPECT_EQ(in.at().line, 5u);

  LineReader raw("x\n\ny\n", "demo");
  std::vector<std::string> lines;
  while (raw.next_raw()) lines.emplace_back(raw.raw());
  EXPECT_EQ(lines, (std::vector<std::string>{"x", "", "y"}));
}

TEST(Text, ErrorsCarryTheFormatAndLine) {
  EXPECT_EQ(error_of([] { fail(kAt, "boom"); }), "demo line 7: boom");
  EXPECT_EQ(error_of([] { read_text_file("/nonexistent/x.noc", "load_x"); }),
            "load_x: cannot open /nonexistent/x.noc");
}

TEST(Text, U64AcceptsPlainDigitsInRange) {
  EXPECT_EQ(parse_u64("0", kAt, 0, 9), 0u);
  EXPECT_EQ(parse_u64("007", kAt, 0, 9), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615", kAt, 0, kMaxU64), kMaxU64);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "1.0",
                          "abc", "18446744073709551616"}) {
    EXPECT_EQ(error_of([&] { parse_u64(bad, kAt, 0, kMaxU64); }),
              std::string("demo line 7: bad number '") + bad + "'");
  }
  EXPECT_EQ(error_of([] { parse_u64("0", kAt, 1, 8); }),
            "demo line 7: value 0 out of range [1, 8]");
  EXPECT_EQ(error_of([] { parse_u64("4294967296", kAt, 0, kMaxU32); }),
            "demo line 7: value 4294967296 out of range [0, 4294967295]");
}

TEST(Text, F64AcceptsFiniteDecimalsInRange) {
  EXPECT_EQ(parse_f64("0.5", kAt, 0, 1), 0.5);
  EXPECT_EQ(parse_f64(".5", kAt, 0, 1), 0.5);
  EXPECT_EQ(parse_f64("5.", kAt, 0, 9), 5.0);
  EXPECT_EQ(parse_f64("1e-05", kAt, 0, 1), 1e-05);
  EXPECT_EQ(parse_f64("2.5E+2", kAt, 0, 1000), 250.0);
  EXPECT_TRUE(std::signbit(parse_f64("-0", kAt, 0, 1)));
  for (const char* bad : {"", "nan", "-nan", "inf", "-inf", "infinity",
                          "0x1p3", "+1", "1e", "e5", ".", "-", "1.2.3",
                          "1e999", "1,5"}) {
    EXPECT_EQ(error_of([&] { parse_f64(bad, kAt, -kMaxF64, kMaxF64); }),
              std::string("demo line 7: bad number '") + bad + "'");
  }
  EXPECT_EQ(error_of([] { parse_f64("1", kAt, 0, kBelowOne); }),
            "demo line 7: value 1 out of range [0, 0.9999999999999999]");
  EXPECT_EQ(error_of([] { parse_f64("-2.5", kAt, 0, 1); }),
            "demo line 7: value -2.5 out of range [0, 1]");
}

TEST(Text, F64ReadsTheSameBitsAsStrtod) {
  // The specs' numbers feed seeds, labels and goldens: the grammar check
  // must not change a single parsed bit relative to the C library.
  Rng rng(2024);
  char buf[40];
  for (int i = 0; i < 20000; ++i) {
    double v = 0;
    const std::uint64_t bits = rng.next_u64();
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    std::snprintf(buf, sizeof(buf), i % 2 ? "%.17g" : "%.15g", v);
    const double expected = std::strtod(buf, nullptr);
    if (expected == 0 && v != 0) continue;  // strtod underflow: ERANGE
    const double got = parse_f64(buf, kAt, -kMaxF64, kMaxF64);
    EXPECT_EQ(std::memcmp(&got, &expected, sizeof(got)), 0) << buf;
  }
}

TEST(Text, HexfloatReadsEveryValuePercentAWrites) {
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           -3.25e-300,
                           std::numeric_limits<double>::denorm_min(),
                           kMaxF64,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  char buf[48];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%a", v);
    const double back = parse_hexfloat(buf, kAt);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << buf;
  }
  for (const double nan : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()}) {
    std::snprintf(buf, sizeof(buf), "%a", nan);
    const double back = parse_hexfloat(buf, kAt);
    EXPECT_TRUE(std::isnan(back)) << buf;
    EXPECT_EQ(std::signbit(back), std::signbit(nan)) << buf;
  }
  EXPECT_EQ(error_of([] { parse_hexfloat("nope", kAt); }),
            "demo line 7: bad float 'nope'");
  EXPECT_EQ(error_of([] { parse_hexfloat("", kAt); }),
            "demo line 7: bad float ''");
}

/// The shipped files with `extension` under `dir`, sorted by name.
std::vector<std::string> shipped(const std::string& dir,
                                 const std::string& extension) {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(XPL_SOURCE_DIR) + dir)) {
    if (entry.path().extension() == extension) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// write(parse(x)) is a fixed point of write∘parse: the contract
/// checkpoint resume relies on.
template <typename Parse, typename Write>
void expect_fixed_point(const std::string& text, Parse parse, Write write,
                        const std::string& what) {
  const std::string once = write(parse(text));
  EXPECT_EQ(write(parse(once)), once) << what;
}

TEST(Text, ShippedFilesRoundTrip) {
  const auto sweeps = shipped("/examples", ".sweep");
  const auto tunes = shipped("/examples", ".tune");
  ASSERT_FALSE(sweeps.empty());
  ASSERT_FALSE(tunes.empty());
  for (const auto& path : sweeps) {
    expect_fixed_point(read_text_file(path, "test"), sweep::parse_sweep,
                       sweep::write_sweep, path);
  }
  for (const auto& path : tunes) {
    expect_fixed_point(read_text_file(path, "test"), tune::parse_tune,
                       tune::write_tune, path);
  }
  const std::string trace =
      std::string(XPL_SOURCE_DIR) + "/tests/golden/run.trace";
  expect_fixed_point(read_text_file(trace, "test"), workload::parse_trace,
                     workload::write_trace, trace);
}

TEST(Text, GeneratedCheckpointRoundTrips) {
  // A partial mesh_scan campaign: three evaluated points, one point that
  // fails by design (5x2 mesh at 16-bit flits cannot fit its route
  // field) and a row whose error text holds a '#', a backslash and a
  // newline, plus non-finite metrics.
  const sweep::SweepSpec spec = sweep::load_sweep(
      std::string(XPL_SOURCE_DIR) + "/examples/mesh_scan.sweep");
  sweep::RunOptions opts;
  opts.halt_after = 3;
  sweep::ResultTable table = sweep::SweepRunner(1).run(spec, opts);
  const auto points = spec.points();
  for (const auto& point : points) {
    if (point.label().rfind("mesh_5x2_f16_", 0) == 0) {
      table.set(sweep::SweepRunner::run_point(point));
      break;
    }
  }
  sweep::SweepResult odd;
  odd.point = points.back();
  odd.evaluated = true;
  odd.avg_latency_cycles = std::numeric_limits<double>::infinity();
  odd.p95_latency_cycles = std::numeric_limits<double>::quiet_NaN();
  odd.error = "# not a comment \\ and\na second line";
  table.set(odd);
  const sweep::Checkpoint ckpt = sweep::make_checkpoint(spec, table);
  ASSERT_EQ(ckpt.results.size(), 5u);
  EXPECT_FALSE(ckpt.results[3].ok);
  EXPECT_FALSE(ckpt.results[3].error.empty());

  const std::string text = sweep::write_checkpoint(ckpt);
  expect_fixed_point(text, sweep::parse_checkpoint, sweep::write_checkpoint,
                     "mesh_scan checkpoint");
  EXPECT_EQ(sweep::parse_checkpoint(text).results.back().error, odd.error);
}

}  // namespace
}  // namespace xpl::text
