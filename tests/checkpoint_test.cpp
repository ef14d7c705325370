// Resumable campaigns: checkpoint format round-trip (hexfloat exactness),
// interrupted-then-resumed campaigns producing byte-identical exports at
// any cursor position and job count, and malformed-sidecar rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/common/error.hpp"
#include "src/sweep/checkpoint.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/spec.hpp"

namespace xpl::sweep {
namespace {

/// Small but non-trivial campaign: 6 points, two fifo depths, one of the
/// rates high enough to produce interesting (non-round) float metrics.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "ckpt_scan";
  spec.seed = 7;
  spec.sim_cycles = 200;
  spec.drain_cycles = 4000;
  spec.widths = {2};
  spec.heights = {2};
  spec.fifo_depths = {2, 4};
  spec.injection_rates = {0.01, 0.05, 0.1};
  return spec;
}

TEST(Checkpoint, FormatRoundTripsExactly) {
  const SweepSpec spec = tiny_spec();
  const SweepRunner runner(1);
  const ResultTable table = runner.run(spec);

  Checkpoint ckpt = make_checkpoint(spec, table);
  EXPECT_EQ(ckpt.results.size(), spec.num_points());

  const std::string text = write_checkpoint(ckpt);
  Checkpoint reparsed = parse_checkpoint(text);
  // Canonical: serializing the parsed form reproduces the bytes.
  EXPECT_EQ(write_checkpoint(reparsed), text);

  const SweepSpec restored = checkpoint_spec(reparsed);
  EXPECT_EQ(restored.num_points(), spec.num_points());
  ASSERT_EQ(reparsed.results.size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const SweepResult& a = table.row(i);
    const SweepResult& b = reparsed.results[i];
    EXPECT_EQ(b.point.index, i);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_TRUE(b.evaluated);
    EXPECT_EQ(a.transactions, b.transactions);
    // Hexfloat storage: bit-exact doubles, not merely close.
    EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
    EXPECT_EQ(a.p95_latency_cycles, b.p95_latency_cycles);
    EXPECT_EQ(a.throughput_tpc, b.throughput_tpc);
    EXPECT_EQ(a.avg_link_utilization, b.avg_link_utilization);
    EXPECT_EQ(a.area_mm2, b.area_mm2);
    EXPECT_EQ(a.power_mw, b.power_mw);
    EXPECT_EQ(a.fmax_mhz, b.fmax_mhz);
    // Rebinding restored the full point (seeds included).
    EXPECT_EQ(a.point.net.seed, b.point.net.seed);
    EXPECT_EQ(a.point.traffic.injection_rate, b.point.traffic.injection_rate);
  }
}

TEST(Checkpoint, ErrorStringsSurviveEscaping) {
  SweepResult r;
  r.point.index = 0;
  r.evaluated = true;
  r.error = "line one\nline \\ two, with spaces";
  Checkpoint ckpt;
  ckpt.spec_text = write_sweep(tiny_spec());
  ckpt.num_points = 6;
  ckpt.results.push_back(r);
  const Checkpoint reparsed = parse_checkpoint(write_checkpoint(ckpt));
  ASSERT_EQ(reparsed.results.size(), 1u);
  EXPECT_EQ(reparsed.results[0].error, r.error);
}

/// Interrupt at `cut` completed points, resume with `resume_jobs` workers,
/// and require the finished exports byte-identical to `ref_csv`/`ref_json`.
void check_resume(const SweepSpec& spec, std::size_t cut,
                  std::size_t resume_jobs, const std::string& ref_csv,
                  const std::string& ref_json) {
  // Phase 1: run with halt_after = cut, checkpointing every result — the
  // library-level equivalent of killing xsweep mid-campaign.
  Checkpoint saved;
  {
    const SweepRunner runner(1);  // jobs 1: halt lands exactly at `cut`
    RunOptions opts;
    opts.halt_after = cut;
    opts.on_progress = [&](const ResultTable& partial) {
      saved = make_checkpoint(spec, partial);
    };
    const ResultTable partial = runner.run(spec, opts);
    std::size_t evaluated = 0;
    for (const auto& r : partial.rows()) evaluated += r.evaluated ? 1 : 0;
    ASSERT_EQ(evaluated, cut);
  }
  // Round-trip the sidecar through its text form, as a real resume would.
  Checkpoint reloaded = parse_checkpoint(write_checkpoint(saved));
  const SweepSpec restored = checkpoint_spec(reloaded);
  ASSERT_EQ(reloaded.results.size(), cut);

  // Phase 2: resume and finish.
  const SweepRunner runner(resume_jobs);
  RunOptions opts;
  opts.resume = &reloaded.results;
  const ResultTable table = runner.run(restored, opts);
  EXPECT_EQ(table.to_csv(), ref_csv) << "cut=" << cut;
  EXPECT_EQ(table.to_json(), ref_json) << "cut=" << cut;
}

TEST(Checkpoint, ResumeIsByteIdenticalAtEveryCursorAndJobCount) {
  const SweepSpec spec = tiny_spec();
  const ResultTable reference = SweepRunner(1).run(spec);
  const std::string ref_csv = reference.to_csv();
  const std::string ref_json = reference.to_json();
  // Also pin that parallel uninterrupted runs match the serial reference.
  EXPECT_EQ(SweepRunner(8).run(spec).to_csv(), ref_csv);

  for (const std::size_t cut : {std::size_t{1}, std::size_t{3},
                                std::size_t{5}}) {
    check_resume(spec, cut, 1, ref_csv, ref_json);
    check_resume(spec, cut, 8, ref_csv, ref_json);
  }
}

TEST(Checkpoint, ResumeIsByteIdenticalAcrossSimThreadCounts) {
  // A campaign interrupted on one machine and resumed with a different
  // per-point thread count (xsweep --sim-threads) must finish with the
  // same bytes: threads/partitions are throughput knobs, not axes.
  const SweepSpec spec = tiny_spec();
  const ResultTable reference = SweepRunner(1).run(spec);
  const std::string ref_csv = reference.to_csv();
  const std::string ref_json = reference.to_json();

  Checkpoint saved;
  {
    const SweepRunner runner(1);
    RunOptions opts;
    opts.halt_after = 3;
    opts.on_progress = [&](const ResultTable& partial) {
      saved = make_checkpoint(spec, partial);
    };
    runner.run(spec, opts);
  }
  Checkpoint reloaded = parse_checkpoint(write_checkpoint(saved));
  ASSERT_EQ(reloaded.results.size(), 3u);

  // Resume leg simulates partitioned points — as if the user passed
  // --sim-threads 2 on the second machine.
  SweepSpec restored = checkpoint_spec(reloaded);
  restored.threads = 2;
  restored.partitions = 2;
  RunOptions opts;
  opts.resume = &reloaded.results;
  const ResultTable table = SweepRunner(2).run(restored, opts);
  EXPECT_EQ(table.to_csv(), ref_csv);
  EXPECT_EQ(table.to_json(), ref_json);
}

TEST(Checkpoint, ResumeIsByteIdenticalAcrossSchedulerChoice) {
  // A campaign interrupted under the default kernel and resumed under
  // `scheduler full` must finish with the same bytes as either
  // uninterrupted run: schedulers are throughput knobs, never axes.
  const SweepSpec spec = tiny_spec();
  const ResultTable reference = SweepRunner(1).run(spec);
  const std::string ref_csv = reference.to_csv();
  const std::string ref_json = reference.to_json();
  SweepSpec full = tiny_spec();
  full.scheduler = "full";
  const ResultTable full_table = SweepRunner(1).run(full);
  EXPECT_EQ(full_table.to_csv(), ref_csv);
  EXPECT_EQ(full_table.to_json(), ref_json);

  Checkpoint saved;
  {
    const SweepRunner runner(1);
    RunOptions opts;
    opts.halt_after = 3;
    opts.on_progress = [&](const ResultTable& partial) {
      saved = make_checkpoint(spec, partial);
    };
    runner.run(spec, opts);
  }
  Checkpoint reloaded = parse_checkpoint(write_checkpoint(saved));
  ASSERT_EQ(reloaded.results.size(), 3u);
  SweepSpec restored = checkpoint_spec(reloaded);
  restored.scheduler = "full";
  RunOptions opts;
  opts.resume = &reloaded.results;
  const ResultTable table = SweepRunner(1).run(restored, opts);
  EXPECT_EQ(table.to_csv(), ref_csv);
  EXPECT_EQ(table.to_json(), ref_json);
}

TEST(Checkpoint, LegacyGatedSidecarResumesByteIdentically) {
  // A sidecar exactly as written before the gated scheduler was folded
  // into time-leap: tiny_spec() halted after three points. Its embedded
  // spec says `scheduler gated`, which must stay canonical (so the
  // sidecar still loads), resolve to the production kernel, and finish
  // the campaign with the CSV the three-scheduler kernel exported.
  const char* kSidecar =
      "# xsweep campaign checkpoint\n"
      "checkpoint 1\n"
      "spec_begin\n"
      "# xsweep campaign specification\n"
      "sweep ckpt_scan\n"
      "seed 7\n"
      "cycles 200\n"
      "drain 4000\n"
      "samples 0\n"
      "target_mhz 800\n"
      "read_fraction 0.5\n"
      "max_burst 2\n"
      "routing auto\n"
      "scheduler gated\n"
      "topology mesh\n"
      "width 2\n"
      "height 2\n"
      "flit_width 32\n"
      "fifo_depth 2 4\n"
      "vcs 1\n"
      "flow ack_nack\n"
      "pattern uniform\n"
      "warmup 0\n"
      "burstiness 0\n"
      "injection_rate 0.01 0.05 0.1\n"
      "spec_end\n"
      "points 6\n"
      "result 0 1 9 110 0 0 0x1.f333333333333p+4 0x1p+5 0x1.70a3d70a3d70ap-5 0x1.7777777777777p-6 0x1.a7b08c6ce92f1p-1 0x1.cdd9bcb74fb08p+5 0x1.0bf3ed5787457p+10\n"
      "result 1 1 42 558 2 0 0x1.1f83e0f83e0f8p+4 0x1.5p+5 0x1.ae147ae147ae1p-3 0x1.dc28f5c28f5c3p-4 0x1.a7b08c6ce92f1p-1 0x1.cdd9bcb74fb08p+5 0x1.0bf3ed5787457p+10\n"
      "result 2 1 65 926 13 0 0x1.63c8253c8253dp+4 0x1.78p+5 0x1.4cccccccccccdp-2 0x1.8b17e4b17e4b1p-3 0x1.a7b08c6ce92f1p-1 0x1.cdd9bcb74fb08p+5 0x1.0bf3ed5787457p+10\n";
  const char* kCsv =
      "index,label,topology,width,height,switches,flit_width,fifo_depth,pattern,injection_rate,burstiness,warmup,cycles,ok,transactions,avg_latency_cycles,p95_latency_cycles,throughput_tpc,link_flits,retransmissions,avg_link_utilization,area_mm2,power_mw,fmax_mhz,error\n"
      "0,mesh_2x2_f32_q2_uniform_r0.01,mesh,2,2,4,32,2,uniform,0.01,0,0,200,1,9,31.2,32,0.045,110,0,0.0229166666666667,0.827518833441529,57.7313169785685,1071.81136120043,\n"
      "1,mesh_2x2_f32_q2_uniform_r0.05,mesh,2,2,4,32,2,uniform,0.05,0,0,200,1,42,17.969696969697,42,0.21,558,2,0.11625,0.827518833441529,57.7313169785685,1071.81136120043,\n"
      "2,mesh_2x2_f32_q2_uniform_r0.1,mesh,2,2,4,32,2,uniform,0.1,0,0,200,1,65,22.2363636363636,47,0.325,926,13,0.192916666666667,0.827518833441529,57.7313169785685,1071.81136120043,\n"
      "3,mesh_2x2_f32_q4_uniform_r0.01,mesh,2,2,4,32,4,uniform,0.01,0,0,200,1,9,20.2,32,0.045,110,0,0.0229166666666667,0.889950878199687,61.8827279556924,1071.81136120043,\n"
      "4,mesh_2x2_f32_q4_uniform_r0.05,mesh,2,2,4,32,4,uniform,0.05,0,0,200,1,34,19.3636363636364,36,0.17,429,2,0.089375,0.889950878199687,61.8827279556924,1071.81136120043,\n"
      "5,mesh_2x2_f32_q4_uniform_r0.1,mesh,2,2,4,32,4,uniform,0.1,0,0,200,1,91,23.972602739726,48,0.455,1264,20,0.263333333333333,0.889950878199687,61.8827279556924,1071.81136120043,\n";
  Checkpoint ckpt = parse_checkpoint(kSidecar);
  EXPECT_EQ(write_checkpoint(ckpt), kSidecar);
  const SweepSpec spec = checkpoint_spec(ckpt);
  EXPECT_EQ(write_sweep(spec), write_sweep(tiny_spec()));
  ASSERT_EQ(ckpt.results.size(), 3u);
  RunOptions opts;
  opts.resume = &ckpt.results;
  const ResultTable table = SweepRunner(1).run(spec, opts);
  EXPECT_EQ(table.to_csv(), kCsv);
  EXPECT_EQ(table.to_json(), SweepRunner(1).run(tiny_spec()).to_json());
}

TEST(Checkpoint, SaveIsAtomicAndLoadable) {
  const SweepSpec spec = tiny_spec();
  const ResultTable table = SweepRunner(1).run(spec);
  const Checkpoint ckpt = make_checkpoint(spec, table);

  const std::string path =
      testing::TempDir() + "/checkpoint_test_atomic.ckpt";
  save_checkpoint(ckpt, path);
  // The temp file must be gone after the rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_EQ(write_checkpoint(loaded), write_checkpoint(ckpt));
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMalformedSidecars) {
  const std::string spec_text = write_sweep(tiny_spec());
  const std::string header =
      "checkpoint 1\nspec_begin\n" + spec_text + "spec_end\npoints 6\n";

  // Unsupported version.
  EXPECT_THROW(parse_checkpoint("checkpoint 2\n"), Error);
  // Missing pieces.
  EXPECT_THROW(parse_checkpoint(""), Error);
  EXPECT_THROW(parse_checkpoint("checkpoint 1\n"), Error);
  EXPECT_THROW(parse_checkpoint("spec_begin\n" + spec_text + "spec_end\n"),
               Error);
  // Truncated spec block.
  EXPECT_THROW(parse_checkpoint("checkpoint 1\nspec_begin\nsweep x\n"),
               Error);
  // Bad result rows: truncated, index out of range, bad float, duplicate.
  EXPECT_THROW(parse_checkpoint(header + "result 0 1 5\n"), Error);
  const std::string row =
      " 1 10 20 0 0 0x1p+3 0x1p+4 0x1p-5 0x1p-6 0x1p-7 0x1p-8 0x1p+9\n";
  EXPECT_THROW(parse_checkpoint(header + "result 6" + row), Error);
  EXPECT_THROW(
      parse_checkpoint(header +
                       "result 0 1 10 20 0 0 nope 0x1p+4 0x1p-5 0x1p-6 "
                       "0x1p-7 0x1p-8 0x1p+9\n"),
      Error);
  EXPECT_THROW(
      parse_checkpoint(header + "result 0" + row + "result 0" + row), Error);
  // Unknown directive.
  EXPECT_THROW(parse_checkpoint(header + "bogus 1\n"), Error);
  // result before the points line.
  EXPECT_THROW(
      parse_checkpoint("checkpoint 1\nspec_begin\n" + spec_text +
                       "spec_end\nresult 0" + row),
      Error);

  // Errors carry the offending line number (the bad row is the first
  // line after the header block).
  const std::size_t bad_line =
      static_cast<std::size_t>(
          std::count(header.begin(), header.end(), '\n')) +
      1;
  try {
    parse_checkpoint(header + "result 0 1 5\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint line " +
                                         std::to_string(bad_line)),
              std::string::npos)
        << e.what();
  }

  // checkpoint_spec cross-checks: non-canonical spec, point-count drift.
  {
    Checkpoint ckpt;
    ckpt.spec_text = "sweep renamed\n";  // parses, but not canonical
    ckpt.num_points = 6;
    EXPECT_THROW(checkpoint_spec(ckpt), Error);
  }
  {
    Checkpoint ckpt;
    ckpt.spec_text = spec_text;
    ckpt.num_points = 5;  // spec resolves to 6
    EXPECT_THROW(checkpoint_spec(ckpt), Error);
  }
}

}  // namespace
}  // namespace xpl::sweep
